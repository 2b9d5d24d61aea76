// perfbench: runs one workload repeatedly for a fixed host-time budget and
// prints its metrics as one JSON line (the last line of standard output).
//
//   perfbench --workload <mm2_thrash|mm1_hetero|fleet_zipf> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-out <file>]
//   perfbench --selfcheck
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// and traced iterations and reports the per-layer metrics, the layer
// ceilings, and the tracing overhead. The line before the result, starting
// "fingerprint ", holds every modeled metric and counter of each instance's
// first iteration. Exit status is 0 only when every output was verified.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "mermaid/apps/matmul.h"
#include "perfbench.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1990;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
  bool selfcheck = false;
};

double HostSeconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double Gini(std::vector<double> x) {
  std::sort(x.begin(), x.end());
  double total = 0, weighted = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    total += x[i];
    weighted += static_cast<double>(i + 1) * x[i];
  }
  if (total <= 0) return 0;
  const double n = static_cast<double>(x.size());
  return 2.0 * weighted / (n * total) - (n + 1.0) / n;
}

// User + system CPU seconds of every thread of the process so far. The
// bounded run metric is CPU time, not wall time: on a shared VM, hypervisor
// steal moved the wall time of the thread-handoff-heavy engine by up to 2x
// between runs, and its CPU time by about 15% at most.
double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Everything one iteration (one System, one Engine::Run) produced.
struct Iteration {
  explicit Iteration(bool spans) : rec(spans) {}
  Recorder rec;
  Outcome out;
  double setup_s = 0;    // before System construction .. Engine::Run
  double system_s = 0;   // System construction + Start
  double run_s = 0;      // Engine::Run, wall clock
  double run_cpu_s = 0;  // Engine::Run, CPU time of all threads
  std::uint64_t switches = 0;
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, base::Histogram> hists;
  std::map<std::string, base::Distribution> dists;
  double grants_gini = 0;

  std::int64_t Count(const std::string& k) const {
    auto it = counters.find(k);
    return it == counters.end() ? 0 : it->second;
  }
  double HistPct(const std::string& k, double p) const {
    auto it = hists.find(k);
    return it == hists.end() ? 0 : it->second.Percentile(p);
  }
  double DistSum(const std::string& k) const {
    auto it = dists.find(k);
    return it == dists.end() ? 0 : it->second.sum();
  }
};

std::unique_ptr<Iteration> RunIteration(Workload& wl, bool spans) {
  auto it = std::make_unique<Iteration>(spans);
  Recorder& rec = it->rec;
  const auto hosts = wl.Hosts();
  const dsm::SystemConfig cfg = wl.Config();

  sim::Engine eng;
  Caller harness(rec, eng, -1, 0);
  const auto t0 = Clock::now();
  auto sys = harness("System::System", Kind::kSetup, [&] {
    return std::make_unique<dsm::System>(eng, cfg, hosts);
  });
  harness("System::Start", Kind::kSetup, [&] { sys->Start(); });
  it->system_s = HostSeconds(Clock::now() - t0);
  harness.Scope("Engine::Run", Kind::kRun, [&](Caller& run) {
    wl.Spawn(*sys, rec, run.parent(), &it->out);
    const auto t1 = Clock::now();
    it->setup_s = HostSeconds(t1 - t0);
    const double c1 = CpuSeconds();
    eng.Run();
    it->run_s = HostSeconds(Clock::now() - t1);
    it->run_cpu_s = CpuSeconds() - c1;
  });
  it->switches = eng.switch_count();

  harness("System::GatherStats", Kind::kStats, [&] {
    base::StatsRegistry& st = sys->GatherStats();
    it->counters = st.Counters();
    it->hists = st.Hists();
    it->dists = st.Dists();
  });
  std::vector<double> grants;
  for (std::uint16_t h = 0; h < sys->num_hosts(); ++h) {
    grants.push_back(static_cast<double>(sys->host(h).ManagerGrantsTotal()));
  }
  it->grants_gini = Gini(grants);
  return it;
}

// The modeled results and counters of an iteration: for one seed these must
// repeat exactly, iteration to iteration and run to run.
std::string Fingerprint(const Iteration& it) {
  std::string s;
  auto add = [&s](const std::string& k, long long v) {
    s += (s.empty() ? "\"" : ",\"") + k + "\":" + std::to_string(v);
  };
  add("elapsed_ns", it.out.elapsed);
  add("checked", it.out.checked);
  add("mismatches", it.out.mismatches);
  add("switches", static_cast<long long>(it.switches));
  add("ops", it.rec.ops);
  add("access_n", static_cast<long long>(it.rec.blocked_ms.size()));
  add("access_modeled_ns", it.rec.access_modeled);
  add("sync_modeled_ns", it.rec.sync_modeled);
  add("compute_modeled_ns", it.rec.compute_modeled);
  for (const auto& [k, v] : it.counters) add(k, v);
  for (const auto& [k, h] : it.hists) {
    add(k + ".count", h.count());
    add(k + ".sum_ns", std::llround(h.sum() * 1e6));
  }
  return "{" + s + "}";
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

// `firsts` holds the first iteration of each workload instance: modeled
// metrics are averaged (or pooled) over the instances, host times are
// medians over every iteration.
std::vector<Metric> EndToEnd(const std::vector<const Iteration*>& firsts,
                             const std::vector<const Iteration*>& all,
                             double peak_rss_mb) {
  std::vector<double> cpu, setup, blocked;
  for (const Iteration* it : all) {
    cpu.push_back(it->run_cpu_s);
    setup.push_back(it->setup_s);
  }
  double modeled = 0, ops = 0;
  for (const Iteration* it : firsts) {
    modeled += ToSeconds(it->out.elapsed);
    ops += static_cast<double>(it->rec.ops);
    blocked.insert(blocked.end(), it->rec.blocked_ms.begin(),
                   it->rec.blocked_ms.end());
  }
  const auto k = static_cast<double>(firsts.size());
  return {
      {"modeled_s", modeled / k, "sim_s"},
      {"run_cpu_s", Median(cpu), "s"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"access_p50_ms", Percentile(blocked, 50), "sim_ms"},
      {"access_p99_ms", Percentile(blocked, 99), "sim_ms"},
      {"access_n", static_cast<double>(blocked.size()) / k, "count"},
      {"ops", ops / k, "count"},
  };
}

// Counters and modeled sums come from `it`, the newest traced iteration;
// host times are medians over the untraced and traced iterations.
std::vector<Metric> PerLayer(const Iteration& it,
                             const std::vector<const Iteration*>& untraced,
                             const std::vector<const Iteration*>& traced,
                             const Ceilings& ceil) {
  std::vector<double> wall, cpu, traced_cpu, system, hit;
  for (const Iteration* u : untraced) {
    wall.push_back(u->run_s);
    cpu.push_back(u->run_cpu_s);
    system.push_back(u->system_s);
  }
  for (const Iteration* t : traced) {
    traced_cpu.push_back(t->run_cpu_s);
    hit.push_back(static_cast<double>(t->rec.hit_access_host_ns) / 1e9);
  }
  const double cpu_s = Median(cpu);
  auto count = [&it](const char* k) {
    return static_cast<double>(it.Count(k));
  };
  const double cc_hits = count("dsm.convert_cache_hits");
  const double cc_attempts = cc_hits + count("dsm.convert_cache_misses");
  const double int_gbps = ceil.codec_gbps.at("int");
  std::vector<Metric> m = {
      {"sim.switches", static_cast<double>(it.switches), "count"},
      {"sim.ns_per_switch",
       cpu_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(
                         it.switches, 1)),
       "ns"},
      {"sim.run_wall_s", Median(wall), "s"},
      {"net.packets", count("net.packets_sent"), "count"},
      {"net.wire_bytes", count("net.bytes_sent"), "B"},
  };
  for (const char* cls :
       {"read_req", "write_req", "invalidate", "confirm", "sync"}) {
    m.push_back({std::string("reqrep.msgs.") + cls,
                 count(("reqrep.tx_msgs." + std::string(cls)).c_str()),
                 "count"});
  }
  const std::vector<Metric> rest = {
      {"reqrep.retransmits", count("reqrep.retransmits"), "count"},
      {"reqrep.call_timeouts", count("reqrep.call_timeouts"), "count"},
      {"reqrep.rtt_p50_ms", it.HistPct("reqrep.rtt_ms", 50), "sim_ms"},
      {"reqrep.rtt_p99_ms", it.HistPct("reqrep.rtt_ms", 99), "sim_ms"},
      {"dsm.read_faults", count("dsm.read_faults"), "count"},
      {"dsm.write_faults", count("dsm.write_faults"), "count"},
      {"dsm.pages_in", count("dsm.pages_in"), "count"},
      {"dsm.bytes_in", count("dsm.bytes_in"), "B"},
      {"dsm.fault_service_p50_ms", it.HistPct("dsm.fault_service_ms", 50),
       "sim_ms"},
      {"dsm.fault_service_p99_ms", it.HistPct("dsm.fault_service_ms", 99),
       "sim_ms"},
      {"dsm.access_modeled_s", ToSeconds(it.rec.access_modeled), "sim_s"},
      {"dsm.hit_access_host_s", Median(hit), "s"},
      {"dsm.convert_cache_hit_ratio",
       cc_attempts > 0 ? cc_hits / cc_attempts : 0, "ratio"},
      {"dsm.convert_cache_hits", cc_hits, "count"},
      {"dsm.convert_cache_attempts", cc_attempts, "count"},
      {"dsm.setup_host_s", Median(system), "s"},
      {"dsm.mgr_grants_gini", it.grants_gini, "ratio"},
      {"arch.conversions", count("dsm.conversions"), "count"},
      {"arch.convert_modeled_ms", it.DistSum("dsm.convert_ms"), "sim_ms"},
      {"arch.codec_gbps.int", int_gbps, "GB/s"},
      {"arch.codec_gbps.short", ceil.codec_gbps.at("short"), "GB/s"},
      {"arch.codec_gbps.float", ceil.codec_gbps.at("float"), "GB/s"},
      {"arch.codec_gbps.double", ceil.codec_gbps.at("double"), "GB/s"},
      {"arch.memcpy_gbps", ceil.memcpy_gbps, "GB/s"},
      {"arch.bswap_gbps", ceil.bswap_gbps, "GB/s"},
      // Computed, not timed: the run's converted bytes (every workload
      // converts int pages only) at the measured int codec rate.
      {"arch.convert_host_s",
       count("dsm.converted_elements") * 4 / (int_gbps * 1e9), "s"},
      {"sync.ops", static_cast<double>(it.rec.sync_ops), "count"},
      {"sync.wait_modeled_s", ToSeconds(it.rec.sync_modeled), "sim_s"},
      {"app.compute_modeled_s", ToSeconds(it.rec.compute_modeled), "sim_s"},
      {"trace.overhead_pct", (Median(traced_cpu) / cpu_s - 1) * 100, "%"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

// Workload instances per run: modeled metrics average over this many seeds
// derived from --seed (the first is --seed itself), so one run's figures
// depend less on a single draw of the inputs. One pass over them is the
// least a run does, so --seconds must cover it: 15-25 s on fleet_zipf.
constexpr int kInstances = 2;
constexpr std::uint64_t kSeedStride = 0x9E3779B97F4A7C15ull;

int Run(const Options& opt) {
  // The traced run reports instance 0 only, so it needs no more of them.
  const int instances = opt.trace ? 1 : kInstances;
  std::vector<std::unique_ptr<Workload>> wls;
  for (int i = 0; i < instances; ++i) {
    wls.push_back(MakeWorkload(opt.workload, opt.seed + i * kSeedStride));
    if (wls.back() == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
      return 2;
    }
  }
  std::vector<std::unique_ptr<Iteration>> untraced, traced;
  std::vector<std::string> fingerprints(static_cast<std::size_t>(instances));
  // The process's peak RSS through its first iteration: later iterations
  // only add allocator noise (freed memory kept in per-thread arenas).
  double peak_rss_mb = 0;
  bool deterministic = true;
  std::int64_t attempted = 0, failed = 0, checked = 0;
  bool all_done = true;

  auto run_one = [&](int inst, bool spans) {
    auto it = RunIteration(*wls[static_cast<std::size_t>(inst)], spans);
    const std::string fp = Fingerprint(*it);
    std::string& first = fingerprints[static_cast<std::size_t>(inst)];
    if (first.empty()) first = fp;
    deterministic = deterministic && fp == first;
    attempted += it->rec.ops;
    failed += it->out.mismatches;
    checked += it->out.checked;
    all_done = all_done && it->out.done;
    std::printf("iteration %s #%d: setup %.3f s, run %.3f s (cpu %.3f s), "
                "modeled %.3f s, %lld values checked, %lld wrong\n",
                spans ? "traced  " : "untraced", inst, it->setup_s, it->run_s,
                it->run_cpu_s,
                ToSeconds(it->out.elapsed),
                static_cast<long long>(it->out.checked),
                static_cast<long long>(it->out.mismatches));
    return it;
  };

  // One pass over the instances, then more while the next repetition, if as
  // long as the longest so far, still ends within --seconds: wall time of a
  // repetition can double when other tenants load the machine. The traced
  // run alternates untraced and traced iterations so both see the same
  // machine conditions.
  const auto start = Clock::now();
  const auto budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(opt.seconds));
  Clock::duration longest{};
  for (int i = 0;; ++i) {
    const auto t = Clock::now();
    if (i >= instances && t - start + longest > budget) break;
    const int inst = i % instances;
    untraced.push_back(run_one(inst, false));
    if (i == 0) peak_rss_mb = PeakRssMb();
    if (opt.trace) {
      // Only the newest traced iteration's spans are written out.
      if (!traced.empty()) traced.back()->rec.DropSpans();
      traced.push_back(run_one(inst, true));
    }
    longest = std::max(longest, Clock::now() - t);
  }

  std::vector<const Iteration*> u, t, firsts;
  for (const auto& it : untraced) {
    u.push_back(it.get());
    if (firsts.size() < static_cast<std::size_t>(instances)) {
      firsts.push_back(it.get());
    }
  }
  for (const auto& it : traced) t.push_back(it.get());

  std::vector<Metric> metrics;
  if (opt.trace) {
    // The ceiling section's spans join the newest traced iteration's.
    Recorder& rec = traced.back()->rec;
    const Ceilings ceil = MeasureCeilings(rec, opt.seed);
    failed += ceil.round_trip_mismatches;
    metrics = PerLayer(*traced.back(), u, t, ceil);
    if (!opt.spans_out.empty() && !WriteSpans(rec.spans(), opt.spans_out)) {
      std::fprintf(stderr, "cannot write %s\n", opt.spans_out.c_str());
      return 2;
    }
  } else {
    metrics = EndToEnd(firsts, u, peak_rss_mb);
  }

  std::printf("fingerprint [");
  for (std::size_t i = 0; i < fingerprints.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ",", fingerprints[i].c_str());
  }
  std::printf("]\n");
  if (!deterministic) {
    std::fprintf(stderr, "FAIL: modeled results differ between iterations "
                         "of one seed\n");
  }
  if (!all_done) std::fprintf(stderr, "FAIL: a workload did not finish\n");
  if (failed > 0) {
    std::fprintf(stderr, "FAIL: %lld verified values were wrong\n",
                 static_cast<long long>(failed));
  }
  const bool correct = deterministic && all_done && failed == 0 && checked > 0;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

// Pins the benchmark's MatMul threads to apps::SetupMatMul: the default-seed
// mm2_thrash must reproduce the apps path's modeled time and page-ins, and
// both must equal the golden values of the §3.3 thrash.
bool SelfCheck() {
  constexpr std::uint64_t kSeed = 1990;
  constexpr long long kGoldenMs = 51081;
  constexpr std::int64_t kGoldenPagesIn = 1341;

  auto wl = MakeWorkload("mm2_thrash", kSeed);
  auto bench = RunIteration(*wl, false);
  const SimDuration bench_elapsed = bench->out.elapsed;
  const std::int64_t bench_pages = bench->Count("dsm.pages_in");

  sim::Engine eng;
  dsm::System sys(eng, wl->Config(), wl->Hosts());
  sys.Start();
  apps::MatMulConfig mm;
  mm.n = 256;
  mm.num_threads = 8;
  mm.worker_hosts = {1, 2, 3};
  mm.round_robin_rows = true;
  mm.element_writes = true;
  mm.seed = kSeed;
  apps::MatMulResult res;
  apps::SetupMatMul(sys, mm, &res);
  eng.Run();
  const std::int64_t apps_pages = sys.GatherStats().Count("dsm.pages_in");

  std::printf("apps path:  %lld ns modeled, %lld pages in, correct %d\n",
              static_cast<long long>(res.elapsed),
              static_cast<long long>(apps_pages), res.correct ? 1 : 0);
  std::printf("benchmark:  %lld ns modeled, %lld pages in, %lld wrong\n",
              static_cast<long long>(bench_elapsed),
              static_cast<long long>(bench_pages),
              static_cast<long long>(bench->out.mismatches));
  const bool ok = res.done && res.correct && bench->out.done &&
                  bench->out.mismatches == 0 &&
                  bench_elapsed == res.elapsed && bench_pages == apps_pages &&
                  std::llround(ToMillis(res.elapsed)) == kGoldenMs &&
                  apps_pages == kGoldenPagesIn;
  std::printf("selfcheck %s (golden %lld ms, %lld pages in)\n",
              ok ? "ok" : "FAILED", kGoldenMs,
              static_cast<long long>(kGoldenPagesIn));
  return ok;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selfcheck") {
      opt.selfcheck = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
      have_workload = true;
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--spans-out" && has_value) {
      opt.spans_out = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or incomplete argument '%s'\n", a.c_str());
      return 2;
    }
  }
  if (opt.selfcheck) return perfbench::SelfCheck() ? 0 : 1;
  if (!have_workload) {
    std::fprintf(stderr, "usage: perfbench --workload <name> [--seed n] "
                         "[--seconds s] [--trace 0|1] [--spans-out file] "
                         "| --selfcheck\n");
    return 2;
  }
  return perfbench::Run(opt);
}
