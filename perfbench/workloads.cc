// The three workloads. Each one's threads call the dsm/sync public API in
// the same sequence as the application they model, so their modeled results
// equal that application's (SelfCheck pins this for MatMul).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "mermaid/base/rng.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using Reg = arch::TypeRegistry;

// --- MatMul (apps::SetupMatMul's call sequence) ----------------------------

struct MatMulSpec {
  int n = 256;
  int fireflies = 3;
  int threads = 8;
  bool round_robin_rows = false;  // MM2 when true, MM1 otherwise
  bool element_writes = false;    // store each result element as computed
  std::uint64_t region_bytes = 4u << 20;
};

constexpr sync::SyncId kDoneSem = 1001;

class MatMul final : public Workload {
 public:
  MatMul(const MatMulSpec& spec, std::uint64_t seed)
      : spec_(spec), seed_(seed) {
    const auto nn = static_cast<std::size_t>(spec.n) * spec.n;
    a_.resize(nn);
    b_.resize(nn);
    base::Rng rng(seed);
    for (auto& v : a_) v = static_cast<std::int32_t>(rng.NextRange(-9, 9));
    for (auto& v : b_) v = static_cast<std::int32_t>(rng.NextRange(-9, 9));
    // The plain reference product every DSM result is checked against.
    const std::size_t n = static_cast<std::size_t>(spec.n);
    c_.assign(nn, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < n; ++k) {
        const std::int32_t aik = a_[i * n + k];
        for (std::size_t j = 0; j < n; ++j) {
          c_[i * n + j] += aik * b_[k * n + j];
        }
      }
    }
  }

  std::vector<const arch::ArchProfile*> Hosts() const override {
    std::vector<const arch::ArchProfile*> v{&arch::Sun3Profile()};
    for (int i = 0; i < spec_.fireflies; ++i) {
      v.push_back(&arch::FireflyProfile());
    }
    return v;
  }

  dsm::SystemConfig Config() const override {
    dsm::SystemConfig cfg;
    cfg.region_bytes = spec_.region_bytes;
    cfg.page_policy = dsm::PageSizePolicy::kLargest;
    cfg.net.seed = seed_;
    return cfg;
  }

  void Spawn(dsm::System& sys, Recorder& rec, std::uint32_t parent,
             Outcome* out) override {
    SpawnTraced(sys, rec, 0, "mm-master", "mm-master", parent,
                [this, &sys, &rec, out](dsm::Host& h, Caller& call) {
                  Master(sys, rec, h, call, out);
                });
  }

 private:
  void Master(dsm::System& sys, Recorder& rec, dsm::Host& h, Caller& call,
              Outcome* out) {
    const int n = spec_.n;
    const auto nn = static_cast<std::uint64_t>(n) * n;
    auto alloc = [&] {
      return call("System::Alloc", Kind::kAlloc,
                  [&] { return sys.Alloc(h.id(), Reg::kInt, nn); });
    };
    const dsm::GlobalAddr a = alloc();
    const dsm::GlobalAddr b = alloc();
    const dsm::GlobalAddr c = alloc();
    call("Host::WriteBlock", Kind::kAccess,
         [&] { h.WriteBlock<std::int32_t>(a, a_.data(), a_.size()); });
    call("Host::WriteBlock", Kind::kAccess,
         [&] { h.WriteBlock<std::int32_t>(b, b_.data(), b_.size()); });
    sync::Client& sc = sys.sync(h.id());
    call("sync::Client::SemInit", Kind::kSync,
         [&] { sc.SemInit(kDoneSem, 0); });
    const SimTime start = h.runtime().Now();
    for (int t = 0; t < spec_.threads; ++t) {
      const auto wh = static_cast<net::HostId>(1 + t % spec_.fireflies);
      SpawnTraced(sys, rec, wh, "mm-worker-" + std::to_string(t), "mm-worker",
                  call.parent(),
                  [this, &sys, a, b, c, t](dsm::Host& hh, Caller& wc) {
                    Worker(sys, hh, wc, a, b, c, t);
                  });
    }
    for (int t = 0; t < spec_.threads; ++t) {
      call("sync::Client::P", Kind::kSync, [&] { sc.P(kDoneSem); });
    }
    out->elapsed = h.runtime().Now() - start;

    // Read the product back through DSM (the result pages migrate to the
    // master) and compare every element with the reference.
    std::vector<std::int32_t> row(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      call("Host::ReadBlock", Kind::kAccess, [&] {
        h.ReadBlock<std::int32_t>(c + 4ull * static_cast<std::uint64_t>(i) * n,
                                  row.size(), row.data());
      });
      const std::int32_t* want = c_.data() + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) {
        out->mismatches += row[static_cast<std::size_t>(j)] != want[j];
      }
      out->checked += n;
    }
    out->done = true;
  }

  void Worker(dsm::System& sys, dsm::Host& h, Caller& call, dsm::GlobalAddr a,
              dsm::GlobalAddr b, dsm::GlobalAddr c, int tid) const {
    const int n = spec_.n;
    const int t = spec_.threads;
    std::vector<int> rows;
    if (spec_.round_robin_rows) {
      for (int i = tid; i < n; i += t) rows.push_back(i);
    } else {
      const int per = (n + t - 1) / t;
      for (int i = tid * per; i < std::min(n, (tid + 1) * per); ++i) {
        rows.push_back(i);
      }
    }
    auto row_addr = [n](dsm::GlobalAddr base, int i) {
      return base + 4ull * static_cast<std::uint64_t>(i) * n;
    };
    const auto un = static_cast<std::size_t>(n);
    std::vector<std::int32_t> arow(un), brow(un), crow(un);
    for (int i : rows) {
      call("Host::ReadBlock", Kind::kAccess,
           [&] { h.ReadBlock<std::int32_t>(row_addr(a, i), un, arow.data()); });
      std::fill(crow.begin(), crow.end(), 0);
      for (int k = 0; k < n; ++k) {
        call("Host::ReadBlock", Kind::kAccess, [&] {
          h.ReadBlock<std::int32_t>(row_addr(b, k), un, brow.data());
        });
        const std::int32_t aik = arow[static_cast<std::size_t>(k)];
        for (std::size_t j = 0; j < un; ++j) crow[j] += aik * brow[j];
      }
      if (spec_.element_writes) {
        for (int j = 0; j < n; ++j) {
          call("Host::Compute", Kind::kCompute, [&] { h.Compute(n); });
          call("Host::Write", Kind::kAccess, [&] {
            h.Write<std::int32_t>(row_addr(c, i) + 4ull * j,
                                  crow[static_cast<std::size_t>(j)]);
          });
        }
      } else {
        call("Host::WriteBlock", Kind::kAccess, [&] {
          h.WriteBlock<std::int32_t>(row_addr(c, i), crow.data(), un);
        });
        call("Host::Compute", Kind::kCompute,
             [&] { h.Compute(static_cast<double>(n) * n); });
      }
    }
    call("sync::Client::V", Kind::kSync,
         [&] { sys.sync(h.id()).V(kDoneSem); });
  }

  MatMulSpec spec_;
  std::uint64_t seed_;
  std::vector<std::int32_t> a_, b_, c_;
};

// --- zipf fleet (bench_directory's access pattern) --------------------------

constexpr int kFleetHosts = 256;
constexpr int kRounds = 6;
constexpr int kReadsPerRound = 2;
constexpr std::uint32_t kPageB = 128;
constexpr int kPagesPerResidue = 64;
constexpr int kResidues = kFleetHosts / 8;
constexpr int kHotPages = kResidues * kPagesPerResidue;
constexpr sync::SyncId kFleetSem = 1;

// Firefly cost model on a 128 B VM page, so a 64-pages-per-host region stays
// ~2 MB per host at 256 hosts with one DSM page per VM page.
const arch::ArchProfile& FleetProfile() {
  static const arch::ArchProfile kProfile = [] {
    arch::ArchProfile p = arch::FireflyProfile();
    p.name = "FFLY256";
    p.vm_page_size = kPageB;
    return p;
  }();
  return kProfile;
}

std::int32_t Stamp(int round, int page) {
  return static_cast<std::int32_t>(round * 1'000'000 + page);
}

class Fleet final : public Workload {
 public:
  explicit Fleet(std::uint64_t seed) : seed_(seed) {
    // Each worker re-reads the same zipf-skewed hot pages every round
    // (rank ~ u^1.5 over the hot set), drawn from its own seeded stream.
    read_sets_.resize(kFleetHosts);
    for (int w = 1; w < kFleetHosts; ++w) {
      base::Rng rng(seed * 977 + static_cast<std::uint64_t>(w));
      for (int& j : read_sets_[static_cast<std::size_t>(w)]) {
        const double u = rng.NextDouble();
        j = static_cast<int>(u * std::sqrt(u) * kHotPages);
      }
    }
  }

  std::vector<const arch::ArchProfile*> Hosts() const override {
    return std::vector<const arch::ArchProfile*>(kFleetHosts, &FleetProfile());
  }

  dsm::SystemConfig Config() const override {
    dsm::SystemConfig cfg;
    cfg.region_bytes =
        static_cast<std::uint64_t>(kPagesPerResidue) * kFleetHosts * kPageB;
    cfg.page_bytes_override = kPageB;
    cfg.directory_mode = dsm::SystemConfig::DirectoryMode::kSharded;
    cfg.directory_shards_per_host = 32;
    cfg.net.seed = seed_;
    return cfg;
  }

  void Spawn(dsm::System& sys, Recorder& rec, std::uint32_t parent,
             Outcome* out) override {
    SpawnTraced(sys, rec, 0, "fleet-master", "fleet-master", parent,
                [this, &sys, &rec, out](dsm::Host& h, Caller& call) {
                  Master(sys, rec, h, call, out);
                });
  }

 private:
  // Hot page j sits at residue j % kResidues, so a p % N manager map would
  // funnel every hot page through one eighth of the fleet.
  static dsm::GlobalAddr Addr(dsm::GlobalAddr base, int j) {
    const auto page = static_cast<dsm::GlobalAddr>(
        j % kResidues + kFleetHosts * (j / kResidues));
    return base + page * kPageB;
  }

  void Master(dsm::System& sys, Recorder& rec, dsm::Host& h, Caller& call,
              Outcome* out) {
    const std::uint64_t region = sys.config().region_bytes;
    const dsm::GlobalAddr base = call("System::Alloc", Kind::kAlloc, [&] {
      return sys.Alloc(0, Reg::kInt, region / 4);
    });
    sync::Client& sc = sys.sync(0);
    call("sync::Client::SemInit", Kind::kSync,
         [&] { sc.SemInit(kFleetSem, 0); });
    const SimTime start = h.runtime().Now();
    for (int w = 1; w < kFleetHosts; ++w) {
      char name[16];
      std::snprintf(name, sizeof(name), "w%d", w);
      SpawnTraced(sys, rec, static_cast<net::HostId>(w), name, "fleet-worker",
                  call.parent(),
                  [this, &sys, base, w, out](dsm::Host& hh, Caller& wc) {
                    Worker(sys, hh, wc, base, w, out);
                  });
    }
    for (int w = 1; w < kFleetHosts; ++w) {
      call("sync::Client::P", Kind::kSync, [&] { sc.P(kFleetSem); });
    }
    out->elapsed = h.runtime().Now() - start;
    // Let confirms and janitor probes drain before the run ends.
    call("Runtime::Delay", Kind::kDelay,
         [&] { h.runtime().Delay(Seconds(5)); });
    out->done = true;
  }

  void Worker(dsm::System& sys, dsm::Host& h, Caller& call,
              dsm::GlobalAddr base, int w, Outcome* out) const {
    const auto& reads = read_sets_[static_cast<std::size_t>(w)];
    for (int r = 0; r < kRounds; ++r) {
      for (int j = w - 1; j < kHotPages; j += kFleetHosts - 1) {
        call("Host::Write", Kind::kAccess,
             [&] { h.Write<std::int32_t>(Addr(base, j), Stamp(r, j)); });
      }
      for (int j : reads) {
        const auto v = call("Host::Read", Kind::kAccess, [&] {
          return h.Read<std::int32_t>(Addr(base, j));
        });
        // Zero (never written yet) or a stamp some round left on page j.
        const bool ok = v == 0 || (v % 1'000'000 == j && v / 1'000'000 >= 0 &&
                                   v / 1'000'000 < kRounds);
        out->mismatches += !ok;
        ++out->checked;
      }
    }
    for (int j = w - 1; j < kHotPages; j += kFleetHosts - 1) {
      const auto v = call("Host::Read", Kind::kAccess,
                          [&] { return h.Read<std::int32_t>(Addr(base, j)); });
      out->mismatches += v != Stamp(kRounds - 1, j);
      ++out->checked;
    }
    call("sync::Client::V", Kind::kSync,
         [&] { sys.sync(h.id()).V(kFleetSem); });
  }

  std::uint64_t seed_;
  std::vector<std::array<int, kReadsPerRound>> read_sets_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "mm2_thrash") {
    // §3.3: rows dealt round-robin, 8 KB result pages (largest-page policy)
    // write-shared by 8 threads on 3 Fireflies, one element store at a time.
    MatMulSpec s;
    s.n = 256;
    s.fireflies = 3;
    s.threads = 8;
    s.round_robin_rows = true;
    s.element_writes = true;
    return std::make_unique<MatMul>(s, seed);
  }
  if (name == "mm1_hetero") {
    // MM1: contiguous row blocks, block result writes; B is read-shared by
    // every Firefly and converted Sun -> VAX on the way.
    MatMulSpec s;
    s.n = 512;
    s.fireflies = 4;
    s.threads = 16;
    return std::make_unique<MatMul>(s, seed);
  }
  if (name == "fleet_zipf") return std::make_unique<Fleet>(seed);
  return nullptr;
}

}  // namespace perfbench
