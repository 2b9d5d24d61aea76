#include "mermaid/apps/matmul_mp.h"

#include <algorithm>

#include "mermaid/base/check.h"
#include "mermaid/base/rng.h"
#include "mermaid/base/wire.h"

namespace mermaid::apps {

namespace {

// Opcodes above the DSM/central range.
constexpr std::uint8_t kOpMpLoadB = 30;  // master -> host: full B matrix
constexpr std::uint8_t kOpMpWork = 31;   // master -> host: rows of A

constexpr sync::SyncId kMpDone = 3001;

net::CallOpts MpCallOpts() {
  net::CallOpts opts;
  opts.timeout = Seconds(30);  // a B-matrix transfer takes hundreds of ms
  opts.max_attempts = 10;
  return opts;
}

// RPC marshaling: ints as big-endian u32 ("network order"), the standard
// cost DSM avoids for page payloads.
void MarshalInts(base::WireWriter& w, const std::int32_t* v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    w.U32(static_cast<std::uint32_t>(v[i]));
  }
}

std::vector<std::int32_t> UnmarshalInts(base::WireReader& r, std::size_t n) {
  std::vector<std::int32_t> out(n);
  for (auto& v : out) v = static_cast<std::int32_t>(r.U32());
  return out;
}

}  // namespace

MpMatMul::MpMatMul(dsm::System& sys) : sys_(sys) {
  per_host_.resize(sys.num_hosts());
  for (std::uint16_t h = 0; h < sys.num_hosts(); ++h) {
    per_host_[h] = std::make_unique<HostState>();
    per_host_[h]->jobs = sim::Chan<Job>(sys.host(h).runtime());
    HostState* state = per_host_[h].get();
    dsm::Host* host = &sys.host(h);

    host->endpoint().SetHandler(kOpMpLoadB, [state, host](
                                                net::RequestContext ctx) {
      base::WireReader r(ctx.body());
      const std::uint32_t n = r.U32();
      auto b = UnmarshalInts(r, static_cast<std::size_t>(n) * n);
      if (!r.ok()) return;
      // Unmarshaling cost: same per-element rate as a DSM page conversion.
      host->runtime().Delay(
          host->profile().convert.per_int_ns > 0
              ? static_cast<SimDuration>(host->profile().convert.per_int_ns *
                                         static_cast<double>(b.size()))
              : 0);
      {
        std::lock_guard<std::mutex> lk(state->mu);
        state->b = std::move(b);
      }
      ctx.Reply({});
    });
    host->endpoint().SetHandler(kOpMpWork, [state](net::RequestContext ctx) {
      base::WireReader r(ctx.body());
      Job job;
      job.n = static_cast<int>(r.U32());
      job.i0 = static_cast<int>(r.U32());
      job.i1 = static_cast<int>(r.U32());
      job.a_rows = UnmarshalInts(
          r, static_cast<std::size_t>(job.i1 - job.i0) * job.n);
      if (!r.ok()) return;
      job.ctx = std::move(ctx);
      state->jobs.Send(std::move(job));
    });

    // Per-host compute workers: enough to use the multiprocessor's CPUs.
    for (int w = 0; w < host->profile().cpu_count; ++w) {
      host->runtime().Spawn(
          "mp-worker-" + std::to_string(h) + "-" + std::to_string(w),
          [state, host] {
            for (;;) {
              auto job = state->jobs.Recv();
              if (!job.has_value()) return;  // shutdown
              const int n = job->n;
              host->runtime().Delay(static_cast<SimDuration>(
                  host->profile().convert.per_int_ns *
                  static_cast<double>(job->a_rows.size())));
              std::vector<std::int32_t> c(
                  static_cast<std::size_t>(job->i1 - job->i0) * n, 0);
              std::vector<std::int32_t> b_local;
              {
                std::lock_guard<std::mutex> lk(state->mu);
                b_local = state->b;  // private copy, plain local memory
              }
              for (int i = job->i0; i < job->i1; ++i) {
                const std::int32_t* arow =
                    job->a_rows.data() +
                    static_cast<std::size_t>(i - job->i0) * n;
                std::int32_t* crow =
                    c.data() + static_cast<std::size_t>(i - job->i0) * n;
                for (int k = 0; k < n; ++k) {
                  const std::int32_t aik = arow[k];
                  const std::int32_t* brow =
                      b_local.data() + static_cast<std::size_t>(k) * n;
                  for (int j = 0; j < n; ++j) crow[j] += aik * brow[j];
                }
                host->Compute(static_cast<double>(n) * n);
              }
              base::WireWriter w2;
              w2.U32(static_cast<std::uint32_t>(job->i0));
              w2.U32(static_cast<std::uint32_t>(job->i1));
              MarshalInts(w2, c.data(), c.size());
              job->ctx->Reply(std::move(w2).Take(), net::MsgKind::kData);
            }
          },
          /*daemon=*/true);
    }
  }
}

void MpMatMul::Setup(const MpMatMulConfig& cfg, MpMatMulResult* out) {
  MERMAID_CHECK(!cfg.worker_hosts.empty());
  sys_.SpawnThread(cfg.master_host, "mp-master", [this, cfg, out](
                                                     dsm::Host& h) {
    const int n = cfg.n;
    base::Rng rng(cfg.seed);
    std::vector<std::int32_t> a(static_cast<std::size_t>(n) * n);
    std::vector<std::int32_t> b(static_cast<std::size_t>(n) * n);
    for (auto& v : a) v = static_cast<std::int32_t>(rng.NextRange(-9, 9));
    for (auto& v : b) v = static_cast<std::int32_t>(rng.NextRange(-9, 9));

    const SimTime start = h.runtime().Now();

    // Data-exchange phase: ship B to every worker host, serialized through
    // the master's protocol stack.
    std::vector<net::HostId> hosts_used(cfg.worker_hosts.begin(),
                                        cfg.worker_hosts.end());
    std::sort(hosts_used.begin(), hosts_used.end());
    hosts_used.erase(std::unique(hosts_used.begin(), hosts_used.end()),
                     hosts_used.end());
    for (net::HostId wh : hosts_used) {
      base::WireWriter w;
      w.U32(static_cast<std::uint32_t>(n));
      MarshalInts(w, b.data(), b.size());
      const net::CallResult ack =
          h.endpoint().CallWithStatus(wh, kOpMpLoadB, std::move(w).Take(),
                                      net::MsgKind::kData, MpCallOpts());
      MERMAID_CHECK_MSG(ack.ok(), "B distribution failed");
    }

    // Work phase: one sender per thread so replies collect concurrently.
    sys_.sync(h.id()).SemInit(kMpDone, 0);
    std::vector<std::int32_t>* c =
        new std::vector<std::int32_t>(static_cast<std::size_t>(n) * n, 0);
    const int per = (n + cfg.num_threads - 1) / cfg.num_threads;
    for (int t = 0; t < cfg.num_threads; ++t) {
      const int i0 = t * per;
      const int i1 = std::min(n, (t + 1) * per);
      if (i0 >= i1) {
        sys_.sync(h.id()).V(kMpDone);
        continue;
      }
      const net::HostId wh = cfg.worker_hosts[t % cfg.worker_hosts.size()];
      sys_.SpawnThread(
          cfg.master_host, "mp-send-" + std::to_string(t),
          [this, &a, c, n, i0, i1, wh](dsm::Host& hh) {
            base::WireWriter w;
            w.U32(static_cast<std::uint32_t>(n));
            w.U32(static_cast<std::uint32_t>(i0));
            w.U32(static_cast<std::uint32_t>(i1));
            MarshalInts(w, a.data() + static_cast<std::size_t>(i0) * n,
                        static_cast<std::size_t>(i1 - i0) * n);
            const net::CallResult reply = hh.endpoint().CallWithStatus(
                wh, kOpMpWork, std::move(w).Take(), net::MsgKind::kData,
                MpCallOpts());
            MERMAID_CHECK_MSG(reply.ok(), "work RPC failed");
            const base::Buffer body = reply.body.Flatten();
            base::WireReader r(body.span());
            const int ri0 = static_cast<int>(r.U32());
            const int ri1 = static_cast<int>(r.U32());
            auto rows = UnmarshalInts(
                r, static_cast<std::size_t>(ri1 - ri0) * n);
            hh.runtime().Delay(static_cast<SimDuration>(
                hh.profile().convert.per_int_ns *
                static_cast<double>(rows.size())));
            std::copy(rows.begin(), rows.end(),
                      c->begin() + static_cast<std::size_t>(ri0) * n);
            sys_.sync(hh.id()).V(kMpDone);
          });
    }
    for (int t = 0; t < cfg.num_threads; ++t) sys_.sync(h.id()).P(kMpDone);
    out->elapsed = h.runtime().Now() - start;

    if (cfg.verify) {
      bool ok = true;
      for (int i = 0; i < n && ok; ++i) {
        for (int j = 0; j < n; ++j) {
          std::int32_t acc = 0;
          for (int k = 0; k < n; ++k) {
            acc += a[static_cast<std::size_t>(i) * n + k] *
                   b[static_cast<std::size_t>(k) * n + j];
          }
          if ((*c)[static_cast<std::size_t>(i) * n + j] != acc) {
            ok = false;
            break;
          }
        }
      }
      out->correct = ok;
    } else {
      out->correct = true;
    }
    out->done = true;
    delete c;
  });
}

}  // namespace mermaid::apps
