// Ablations of the heterogeneity machinery (beyond the paper's tables).
//
//   A. Conversion cost on/off — quantifies §2.3's claim that "the cost of
//      data conversion does not substantially increase the overall cost of
//      paging across the network" on the whole-application level.
//      (With conversion disabled the modeled cost vanishes; results would
//      be wrong on a real system, which is the point of the mechanism.)
//   B. Partial-page transfer on/off — the paper's allocated-extent
//      optimization; measured in bytes moved for a sparse working set.
#include <cstdio>

#include "bench_util.h"

namespace mermaid {
namespace {

using Reg = arch::TypeRegistry;

void AblationConversion(benchutil::JsonReport& report) {
  benchutil::PrintHeader("Ablation A: data conversion cost on/off "
                         "(MM 256x256, master Sun + 4 Fireflies, 8 threads)");
  apps::MatMulConfig mm;
  mm.n = 256;
  mm.num_threads = 8;
  mm.worker_hosts = benchutil::WorkerIds(4);
  mm.verify = false;
  dsm::SystemConfig cfg;
  cfg.region_bytes = 4u << 20;

  cfg.convert_enabled = true;
  auto with = benchutil::RunMatMulOnce(
      cfg, benchutil::MasterPlusFireflies(benchutil::Sun(), 4), mm);
  cfg.convert_enabled = false;
  auto without = benchutil::RunMatMulOnce(
      cfg, benchutil::MasterPlusFireflies(benchutil::Sun(), 4), mm);
  std::printf("with conversion:    %7.1f s  (%lld page conversions)\n",
              with.seconds, static_cast<long long>(with.conversions));
  std::printf("without conversion: %7.1f s\n", without.seconds);
  std::printf("conversion adds %.1f%% to the response time\n",
              100.0 * (with.seconds - without.seconds) / without.seconds);
  report.Add("conversion.with_s", with.seconds);
  report.Add("conversion.without_s", without.seconds);
  report.Add("conversion.count", with.conversions);
}

void AblationPartialTransfer(benchutil::JsonReport& report) {
  benchutil::PrintHeader(
      "Ablation B: partial-page transfer (page holding only 64 allocated "
      "ints of its 8 KB)");
  for (bool partial : {true, false}) {
    sim::Engine eng;
    dsm::SystemConfig cfg;
    cfg.region_bytes = 1u << 20;
    cfg.partial_page_transfer = partial;
    dsm::System sys(eng, cfg, {&benchutil::Sun(), &benchutil::Ffly()});
    sys.Start();
    sys.SpawnThread(0, "writer", [&](dsm::Host& h) {
      dsm::GlobalAddr a = sys.Alloc(0, Reg::kInt, 64);
      for (int i = 0; i < 64; ++i) h.Write<std::int32_t>(a + 4 * i, i);
      sys.sync(0).EventSet(1);
    });
    sys.SpawnThread(1, "reader", [&](dsm::Host& h) {
      sys.sync(1).EventWait(1);
      std::int64_t sum = 0;
      for (int i = 0; i < 64; ++i) sum += h.Read<std::int32_t>(4 * i);
      if (sum != 64 * 63 / 2) std::printf("BAD SUM\n");
    });
    eng.Run();
    std::printf(
        "partial=%-5s bytes moved: %-6lld conversion delay on the "
        "receiving Firefly scales with the same extent\n",
        partial ? "on" : "off",
        static_cast<long long>(sys.host(1).stats().Count("dsm.bytes_in")));
    report.Add(std::string("partial.") + (partial ? "on" : "off") +
                   ".bytes_in",
               sys.host(1).stats().Count("dsm.bytes_in"));
  }
}

}  // namespace
}  // namespace mermaid

int main() {
  mermaid::benchutil::JsonReport report("ablation_hetero");
  mermaid::AblationConversion(report);
  mermaid::AblationPartialTransfer(report);
  report.Write();
  return 0;
}
