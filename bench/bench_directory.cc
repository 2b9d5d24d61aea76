// Directory scale-out: manager-load balance and fault latency at fleet
// sizes the paper never reached (64-512 hosts).
//
// The workload is built to exercise the fixed p % N manager map's worst
// case: every hot page lives at a residue below N/8, so the paper's scheme
// funnels all manager traffic through one eighth of the fleet while the
// consistent-hash ring (kSharded) spreads it. Each of the 2N hot pages has
// one dedicated writer; every worker alternates stamping its own pages with
// zipf-skewed reads of the others' (rank ~ u^2 over the hot set), so
// managers also serve a skewed read mix. Two headline numbers per mode:
//
//   gini  — Gini coefficient of per-host lifetime manager grants
//           (Host::ManagerGrantsTotal), 0 = perfectly even.
//   p99   — 99th percentile of per-operation latency in modeled ms; the
//           rx loop serializes request handling per host, so a melted
//           manager shows up as queueing delay, not just hop counts.
//
// The run is a regression gate: it exits non-zero unless, at every fleet
// size, sharded cuts the manager-load Gini at least 2x below fixed and
// beats fixed's p99 fault latency. Writes BENCH_directory.json,
// which also records each run's host wall-clock split into setup (System
// construction + Start) and run (Engine::Run).
//
// All hosts share one Firefly-derived profile with 128-byte VM pages so a
// 64N-page region fits in memory at N=512 while keeping the 1:1 VM:DSM
// page mapping of an all-Firefly cluster.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "mermaid/base/rng.h"

namespace mermaid {
namespace {

constexpr int kRounds = 6;
constexpr int kReadsPerRound = 2;
constexpr std::uint32_t kPageB = 128;
constexpr int kPagesPerResidue = 64;  // hot pages = kPagesPerResidue * N/8

// Firefly cost model on a small VM page: region_bytes = 64N pages stays
// 4 MB/host at N=512, and every DSM page maps to exactly one VM page.
const arch::ArchProfile& BenchProfile() {
  static const arch::ArchProfile kProfile = [] {
    arch::ArchProfile p = arch::FireflyProfile();
    p.name = "FFLY256";
    p.vm_page_size = kPageB;
    return p;
  }();
  return kProfile;
}

struct ModeSpec {
  const char* name;
  dsm::SystemConfig::DirectoryMode mode;
};

// A mode's index seeds its network (net.seed), so the order is fixed.
constexpr ModeSpec kModes[] = {
    {"fixed", dsm::SystemConfig::DirectoryMode::kFixed},
    {"sharded", dsm::SystemConfig::DirectoryMode::kSharded},
};

struct ModeResult {
  double gini = 0;
  double p99_ms = 0;
  double mean_ms = 0;
  std::int64_t ops = 0;
  bool correct = false;
  // Host wall-clock: System construction + Start, then Engine::Run.
  double setup_wall_s = 0;
  double run_wall_s = 0;
};

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double Gini(std::vector<double> x) {
  std::sort(x.begin(), x.end());
  double total = 0;
  for (double v : x) total += v;
  if (total <= 0) return 0;
  const double n = static_cast<double>(x.size());
  double weighted = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    weighted += static_cast<double>(i + 1) * x[i];
  }
  return 2.0 * weighted / (n * total) - (n + 1.0) / n;
}

double Percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const auto k = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[static_cast<std::ptrdiff_t>(k)];
}

ModeResult RunMode(int n_hosts, const ModeSpec& mode, int mode_idx) {
  const int residues = n_hosts / 8;
  const int hot_pages = residues * kPagesPerResidue;
  // Hot page j sits at residue j % residues, so under kFixed all of them
  // are managed by hosts 0..residues-1.
  auto page_of = [&](int j) {
    return j % residues + n_hosts * (j / residues);
  };

  sim::Engine eng;
  dsm::SystemConfig cfg;
  benchutil::ApplyTraceEnv(cfg);
  cfg.region_bytes =
      static_cast<std::uint64_t>(kPagesPerResidue * n_hosts) * kPageB;
  cfg.page_bytes_override = kPageB;
  cfg.directory_mode = mode.mode;
  cfg.directory_shards_per_host = 32;  // tighter ring balance at scale
  cfg.net.seed = 52000 + static_cast<std::uint64_t>(n_hosts) * 10 +
                 static_cast<std::uint64_t>(mode_idx);

  std::vector<const arch::ArchProfile*> hosts(
      static_cast<std::size_t>(n_hosts), &BenchProfile());
  const auto setup_start = std::chrono::steady_clock::now();
  dsm::System sys(eng, cfg, hosts);
  sys.Start();
  const double setup_wall_s = SecondsSince(setup_start);

  std::vector<std::vector<double>> lat(static_cast<std::size_t>(n_hosts));
  std::vector<bool> worker_ok(static_cast<std::size_t>(n_hosts), false);

  sys.SpawnThread(0, "master", [&](dsm::Host& h) {
    const dsm::GlobalAddr base =
        sys.Alloc(0, arch::TypeRegistry::kInt, cfg.region_bytes / 4);
    sys.sync(0).SemInit(1, 0);
    for (int w = 1; w < n_hosts; ++w) {
      sys.SpawnThread(w, "w" + std::to_string(w), [&, base, w](dsm::Host& hh) {
        base::Rng rng(cfg.net.seed * 977 + static_cast<std::uint64_t>(w));
        auto timed = [&](auto&& op) {
          const SimTime t0 = hh.runtime().Now();
          op();
          lat[static_cast<std::size_t>(w)].push_back(
              ToMillis(hh.runtime().Now() - t0));
        };
        auto addr = [&](int j) {
          return base + static_cast<dsm::GlobalAddr>(page_of(j)) * kPageB;
        };
        // Zipf working set with temporal locality: each worker re-reads
        // the same skew-sampled pages every round (rank ~ u^2).
        int read_set[kReadsPerRound];
        for (int k = 0; k < kReadsPerRound; ++k) {
          const double u = rng.NextDouble();
          read_set[k] = static_cast<int>(u * std::sqrt(u) * hot_pages);
        }
        for (int r = 0; r < kRounds; ++r) {
          for (int j = w - 1; j < hot_pages; j += n_hosts - 1) {
            const auto stamp =
                static_cast<std::int32_t>(r * 1'000'000 + j);
            timed([&] { hh.Write<std::int32_t>(addr(j), stamp); });
          }
          for (int k = 0; k < kReadsPerRound; ++k) {
            const int j = read_set[k];
            timed([&] { (void)hh.Read<std::int32_t>(addr(j)); });
          }
        }
        bool ok = true;
        for (int j = w - 1; j < hot_pages; j += n_hosts - 1) {
          const auto want =
              static_cast<std::int32_t>((kRounds - 1) * 1'000'000 + j);
          ok = ok && hh.Read<std::int32_t>(addr(j)) == want;
        }
        worker_ok[static_cast<std::size_t>(w)] = ok;
        sys.sync(w).V(1);
      });
    }
    for (int w = 1; w < n_hosts; ++w) sys.sync(0).P(1);
    h.runtime().Delay(Seconds(5));  // confirm/janitor drain
  });
  const auto run_start = std::chrono::steady_clock::now();
  eng.Run();
  const double run_wall_s = SecondsSince(run_start);
  benchutil::WriteTraceArtifacts(sys, std::string("directory_") + mode.name);

  std::vector<double> grants;
  grants.reserve(static_cast<std::size_t>(n_hosts));
  for (int i = 0; i < n_hosts; ++i) {
    grants.push_back(static_cast<double>(sys.host(i).ManagerGrantsTotal()));
  }
  std::vector<double> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  double sum = 0;
  for (double v : all) sum += v;

  ModeResult r;
  r.gini = Gini(grants);
  r.p99_ms = Percentile(all, 0.99);
  r.mean_ms = all.empty() ? 0 : sum / static_cast<double>(all.size());
  r.ops = static_cast<std::int64_t>(all.size());
  r.setup_wall_s = setup_wall_s;
  r.run_wall_s = run_wall_s;
  r.correct = true;
  for (int w = 1; w < n_hosts; ++w) {
    r.correct = r.correct && worker_ok[static_cast<std::size_t>(w)];
  }
  return r;
}

}  // namespace
}  // namespace mermaid

int main() {
  using namespace mermaid;
  benchutil::PrintHeader(
      "Directory scale-out: manager-load Gini and per-op p99 under zipf "
      "skew (hot pages aliased to residues < N/8)");
  benchutil::JsonReport report("directory");
  bool all_ok = true;
  for (int n : {64, 128, 256, 512}) {
    std::printf("\n-- %d hosts --\n", n);
    std::printf("%12s %8s %10s %10s %7s %4s %8s %8s\n", "mode", "gini",
                "p99_ms", "mean_ms", "ops", "ok", "setup_s", "run_s");
    ModeResult fixed;
    for (int m = 0; m < 2; ++m) {
      const auto& spec = kModes[m];
      const ModeResult r = RunMode(n, spec, m);
      std::printf("%12s %8.3f %10.2f %10.2f %7lld %4s %8.3f %8.3f\n",
                  spec.name, r.gini, r.p99_ms, r.mean_ms,
                  static_cast<long long>(r.ops), r.correct ? "yes" : "NO",
                  r.setup_wall_s, r.run_wall_s);
      const std::string p =
          "n" + std::to_string(n) + "_" + spec.name + "_";
      report.Add(p + "gini", r.gini);
      report.Add(p + "p99_ms", r.p99_ms);
      report.Add(p + "mean_ms", r.mean_ms);
      report.Add(p + "setup_wall_s", r.setup_wall_s);
      report.Add(p + "run_wall_s", r.run_wall_s);
      all_ok = all_ok && r.correct;
      if (m == 0) {
        fixed = r;
        continue;
      }
      // The regression gate: sharded must cut the manager-load Gini >= 2x
      // below fixed and beat fixed's p99.
      if (r.gini * 2.0 > fixed.gini) {
        std::fprintf(stderr,
                     "FAIL: n=%d %s gini %.3f is not a 2x cut vs fixed "
                     "%.3f\n",
                     n, spec.name, r.gini, fixed.gini);
        all_ok = false;
      }
      if (r.p99_ms >= fixed.p99_ms) {
        std::fprintf(stderr,
                     "FAIL: n=%d %s p99 %.2f ms did not beat fixed %.2f "
                     "ms\n",
                     n, spec.name, r.p99_ms, fixed.p99_ms);
        all_ok = false;
      }
    }
  }
  report.Write();
  if (!all_ok) {
    std::fprintf(stderr, "FAIL: directory scale-out gate not met\n");
    return 1;
  }
  return 0;
}
