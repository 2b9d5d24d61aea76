// Release consistency (SystemConfig::release_consistency): litmus suite,
// trace replay of the twin -> diff -> notice chain, and the three cross-knob
// regressions that rode along with the RC work.
//
// Semantics under test: every sync operation is a release point (the
// issuing host flushes its write twins as diffs to each page's home) and
// P / EventWait / Barrier are acquire points (the waker's reply carries
// write notices; the acquirer self-invalidates stale copies). Properly
// synchronized programs must therefore see exact sequentially-consistent
// results, while unsynchronized races may legally observe outcomes that
// strict write-invalidate forbids — the litmus tests assert exactly that
// split. The coherence referee runs in relaxed mode and still checks every
// access, so a pass means the implementation honored the RC contract, not
// just that values happened to look right.
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mermaid/arch/arch.h"
#include "mermaid/dsm/page_table.h"
#include "mermaid/dsm/system.h"
#include "mermaid/sim/engine.h"
#include "mermaid/trace/trace.h"

namespace mermaid::dsm {
namespace {

using Reg = arch::TypeRegistry;

SystemConfig RcConfig() {
  SystemConfig cfg;
  cfg.region_bytes = 256 * 1024;
  cfg.referee_check_access = true;
  cfg.release_consistency = true;
  return cfg;
}

void ExpectQuiescent(System& sys) {
  const auto q = sys.CheckQuiescent();
  EXPECT_EQ(q.busy_entries, 0u) << "manager entries still busy at quiescence";
  EXPECT_EQ(q.pending_transfers, 0u) << "transfers still queued at quiescence";
}

// Message passing, properly synchronized: the writer's V is a release (its
// twins flush before the wire op), the reader's P is an acquire (the reply
// carries the write notices). The reader must then see BOTH writes — under
// RC the synchronized outcome is exact, not merely "not inverted".
TEST(RcLitmus, SynchronizedMessagePassingSeesAllWrites) {
  for (int offset = 0; offset <= 30; offset += 10) {
    sim::Engine eng;
    SystemConfig cfg = RcConfig();
    cfg.net.seed = 8100 + static_cast<std::uint64_t>(offset);
    System sys(eng, cfg,
               {&arch::Sun3Profile(), &arch::FireflyProfile(),
                &arch::FireflyProfile()});
    sys.Start();
    int r1 = -1, r2 = -1;
    sys.SpawnThread(0, "master", [&](Host& h) {
      GlobalAddr x = sys.Alloc(0, Reg::kInt, 1);
      GlobalAddr y = sys.Alloc(0, Reg::kLong, 1);
      h.Write<std::int32_t>(x, 0);
      h.Write<std::int64_t>(y, 0);
      sys.sync(0).SemInit(1, 0);
      sys.sync(0).SemInit(2, 0);
      sys.SpawnThread(1, "writer", [&, x, y](Host& hh) {
        hh.Compute(100.0 * offset);
        hh.Write<std::int32_t>(x, 1);
        hh.Write<std::int64_t>(y, 1);
        sys.sync(1).V(1);  // release: flush twins, publish notices
      });
      sys.SpawnThread(2, "reader", [&, x, y](Host& hh) {
        sys.sync(2).P(1);  // acquire: apply the writer's notices
        r1 = static_cast<int>(hh.Read<std::int64_t>(y));
        r2 = hh.Read<std::int32_t>(x);
        sys.sync(2).V(2);
      });
      sys.sync(0).P(2);
    });
    eng.Run();
    EXPECT_EQ(r1, 1) << "acquire missed the writer's y at offset " << offset;
    EXPECT_EQ(r2, 1) << "acquire missed the writer's x at offset " << offset;
    ExpectQuiescent(sys);
  }
}

// Store buffering, unsynchronized: each host writes one variable and reads
// the other with no release/acquire pair between them. Under RC the writes
// sit in local twins until the final V, so r1 == 0 && r2 == 0 — forbidden
// under sequential consistency — is a legal outcome here. The test asserts
// only the RC contract: values stay in domain, the referee (in relaxed
// mode) stays clean, and after both workers release and the master
// acquires, the master sees both writes exactly.
TEST(RcLitmus, UnsynchronizedStoreBufferingWeakOutcomesAreLegal) {
  sim::Engine eng;
  SystemConfig cfg = RcConfig();
  cfg.page_bytes_override = 1024;
  cfg.net.seed = 8200;
  System sys(eng, cfg,
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::FireflyProfile()});
  sys.Start();
  std::int64_t r1 = -1, r2 = -1;
  sys.SpawnThread(0, "master", [&](Host& h) {
    GlobalAddr base = sys.Alloc(0, Reg::kLong, 256);  // pages 0, 1
    const GlobalAddr x = base;                        // page 0, home host 0
    const GlobalAddr y = base + 1024;                 // page 1, home host 1
    h.Write<std::int64_t>(x, 0);
    h.Write<std::int64_t>(y, 0);
    sys.sync(0).SemInit(1, 0);
    sys.SpawnThread(1, "sb-a", [&, x, y](Host& hh) {
      hh.Write<std::int64_t>(x, 1);
      r1 = hh.Read<std::int64_t>(y);  // racy: 0 or 1, both legal under RC
      sys.sync(1).V(1);
    });
    sys.SpawnThread(2, "sb-b", [&, x, y](Host& hh) {
      hh.Write<std::int64_t>(y, 1);
      r2 = hh.Read<std::int64_t>(x);
      sys.sync(2).V(1);
    });
    sys.sync(0).P(1);
    sys.sync(0).P(1);
    // Acquired after both releases: the master must see both stores.
    EXPECT_EQ(h.Read<std::int64_t>(x), 1);
    EXPECT_EQ(h.Read<std::int64_t>(y), 1);
    h.runtime().Delay(Seconds(2));  // confirm drain before quiescence
  });
  eng.Run();
  EXPECT_TRUE(r1 == 0 || r1 == 1) << "out-of-domain value " << r1;
  EXPECT_TRUE(r2 == 0 || r2 == 1) << "out-of-domain value " << r2;
  ExpectQuiescent(sys);
}

// Lock-protected counter: the canonical "RC equals SC for data-race-free
// programs" litmus. Three hosts (one of them the counter page's home, so
// the home-dirty in-place path runs alongside the twin/diff path) increment
// under a semaphore mutex; every P acquires the previous holder's release,
// so the total must be exact.
TEST(RcLitmus, LockProtectedCounterIsExact) {
  constexpr int kWorkers = 3;
  constexpr int kIters = 8;
  sim::Engine eng;
  SystemConfig cfg = RcConfig();
  cfg.net.seed = 8300;
  System sys(eng, cfg,
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::FireflyProfile()});
  sys.Start();
  std::int64_t final_value = -1;
  sys.SpawnThread(0, "master", [&](Host& h) {
    GlobalAddr a = sys.Alloc(0, Reg::kLong, 1);
    h.Write<std::int64_t>(a, 0);
    sys.sync(0).SemInit(1, 1);  // mutex
    sys.sync(0).SemInit(2, 0);  // done
    for (int i = 0; i < kWorkers; ++i) {
      sys.SpawnThread(i, "inc" + std::to_string(i), [&, a, i](Host& hh) {
        for (int k = 0; k < kIters; ++k) {
          sys.sync(i).P(1);
          const std::int64_t v = hh.Read<std::int64_t>(a);
          hh.Write<std::int64_t>(a, v + 1);
          sys.sync(i).V(1);
        }
        sys.sync(i).V(2);
      });
    }
    for (int i = 0; i < kWorkers; ++i) sys.sync(0).P(2);
    final_value = h.Read<std::int64_t>(a);
  });
  eng.Run();
  EXPECT_EQ(final_value, kWorkers * kIters);
  auto& st = sys.GatherStats();
  // Both write-aggregation paths genuinely ran: remote writers twinned and
  // flushed diffs, the home host marked its in-place writes, and acquirers
  // applied the resulting notices.
  EXPECT_GT(st.Count("dsm.rc_twins"), 0);
  EXPECT_GT(st.Count("dsm.rc_flushes"), 0);
  EXPECT_GT(st.Count("dsm.rc_flushes_applied"), 0);
  EXPECT_GT(st.Count("dsm.rc_home_dirty_marks"), 0);
  EXPECT_GT(st.Count("dsm.rc_notices_applied"), 0);
  EXPECT_GT(st.Count("sync.rc_notices_recorded"), 0);
  ExpectQuiescent(sys);
}

// Trace replay of one full write-aggregation chain: the writer's twin
// (kTwinCreate) parents its diff flush (kDiffFlush), and the acquirer's
// self-invalidation (kWriteNotice) links cross-host back to that flush
// through RcNoticeKey — the reconstructed chain matches the protocol.
TEST(RcTrace, TwinDiffNoticeChainReplays) {
  sim::Engine eng;
  SystemConfig cfg = RcConfig();
  cfg.page_bytes_override = 8192;
  cfg.trace = true;
  System sys(eng, cfg,
             {&arch::Sun3Profile(), &arch::Sun3Profile(),
              &arch::Sun3Profile()});
  sys.Start();
  const PageNum target = 1;  // home = host 1
  const GlobalAddr page_b = 8192;
  std::int32_t reread = -1;
  sys.SpawnThread(0, "master", [&](Host& h) {
    GlobalAddr a = sys.Alloc(0, Reg::kInt, 4096);  // pages 0, 1
    sys.sync(0).SemInit(1, 0);
    EXPECT_EQ(h.Read<std::int32_t>(a + target * page_b), 0);  // read copy
    sys.SpawnThread(2, "writer", [&, a](Host& hh) {
      hh.Write<std::int32_t>(a + target * page_b, 7);  // twin, not invalidate
      sys.sync(2).V(1);  // release: diff flush to home host 1
    });
    sys.sync(0).P(1);  // acquire: the notice invalidates the read copy
    reread = h.Read<std::int32_t>(a + target * page_b);
    h.runtime().Delay(Seconds(2));  // confirm drain before quiescence
  });
  eng.Run();
  EXPECT_EQ(reread, 7);

  const std::vector<trace::Event> evs = sys.tracer().Snapshot();
  std::map<std::uint64_t, const trace::Event*> by_id;
  for (const trace::Event& ev : evs) by_id[ev.id] = &ev;
  const trace::Event* twin = nullptr;
  const trace::Event* flush = nullptr;
  const trace::Event* notice = nullptr;
  for (const trace::Event& ev : evs) {
    if (ev.page != target) continue;
    if (ev.kind == trace::EventKind::kTwinCreate && ev.host == 2) twin = &ev;
    if (ev.kind == trace::EventKind::kDiffFlush && ev.host == 2) flush = &ev;
    if (ev.kind == trace::EventKind::kWriteNotice && ev.host == 0)
      notice = &ev;
  }
  ASSERT_NE(twin, nullptr) << "writer never twinned the page";
  ASSERT_NE(flush, nullptr) << "release never flushed the twin";
  ASSERT_NE(notice, nullptr) << "acquire never applied the write notice";
  EXPECT_EQ(twin->a1, 0) << "host 2 is not the home: a real twin, not "
                            "home-dirty";
  EXPECT_EQ(flush->parent, twin->id) << "diff flush must chain off its twin";
  EXPECT_GT(flush->a0, 0) << "the flush carried diff bytes";
  EXPECT_GT(flush->a1, 0) << "the flush carried at least one range";
  EXPECT_EQ(notice->parent, flush->id)
      << "the acquirer's notice must link cross-host to the flush";
  EXPECT_EQ(notice->a1, 2) << "notice names the originating writer";
  EXPECT_LE(twin->at, flush->at);
  EXPECT_LE(flush->at, notice->at);
  ExpectQuiescent(sys);
}

// Regression (convert cache vs. diff writes): a diff flush mutates the home
// copy without a fault-path write, so it must still advance the version and
// drop the owner-side conversion cache — otherwise the very next read fault
// from a foreign-representation host is served a stale cached image. The
// readers here are Fireflies and the home is a Sun-3, so every serve
// converts and the cache genuinely holds an entry when the diff lands.
TEST(RcRegression, DiffApplyInvalidatesConvertCache) {
  sim::Engine eng;
  SystemConfig cfg = RcConfig();
  cfg.page_bytes_override = 1024;
  // RC plus crash recovery's incarnation headers: the diff/cache invariant
  // must hold with every wire field on.
  cfg.crash_recovery = true;
  cfg.net.seed = 8500;
  System sys(eng, cfg,
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::FireflyProfile()});
  sys.Start();

  std::int32_t updated = -1, untouched = -1;
  sys.SpawnThread(0, "master", [&](Host& h) {
    GlobalAddr a = sys.Alloc(0, Reg::kInt, 64);  // page 0, home host 0
    for (int i = 0; i < 64; ++i) {
      h.Write<std::int32_t>(a + 4u * i, i);  // home-dirty in-place writes
    }
    sys.sync(0).SemInit(1, 0);
    sys.sync(0).SemInit(2, 0);
    // Prime the conversion cache: a Firefly read makes the Sun-3 home
    // convert and cache the outgoing image at the current version.
    sys.SpawnThread(1, "primer", [&, a](Host& hh) {
      EXPECT_EQ(hh.Read<std::int32_t>(a + 4u * 5), 5);
      sys.sync(1).V(1);
    });
    sys.sync(0).P(1);
    // A second Firefly writes element 5 through a twin and releases: the
    // diff flush converts at the home, bumps the version, and must drop
    // the cached image.
    sys.SpawnThread(2, "writer", [&, a](Host& hh) {
      hh.Write<std::int32_t>(a + 4u * 5, 777);
      sys.sync(2).V(2);  // release
    });
    // Acquire after the writer's release, then immediately re-fault the
    // page from the home: the serve must carry the post-diff bytes, not
    // the pre-diff cached conversion.
    sys.SpawnThread(1, "rereader", [&, a](Host& hh) {
      sys.sync(1).P(2);
      updated = hh.Read<std::int32_t>(a + 4u * 5);
      untouched = hh.Read<std::int32_t>(a + 4u * 4);
      sys.sync(1).V(1);
    });
    sys.sync(0).P(1);
  });
  eng.Run();
  EXPECT_EQ(updated, 777) << "read fault after a diff flush was served a "
                             "stale conversion-cache image";
  EXPECT_EQ(untouched, 4) << "the diff clobbered bytes outside its ranges";
  auto& st = sys.GatherStats();
  EXPECT_GT(st.Count("dsm.conversions"), 0);
  EXPECT_GT(st.Count("dsm.rc_flushes_applied"), 0);
  ExpectQuiescent(sys);
}

// Regression (release under loss): a retransmitted release — both the V
// carrying the notice block and the diff-flush call itself — must not
// double-apply diffs or double-record notices. Under 30% loss the flush
// replies get dropped, the writer re-issues as fresh calls, and the
// (page, origin, seq)-keyed dedup at the home must keep the counter exact.
TEST(RcChaos, LockCounterExactUnderHeavyLoss) {
  constexpr int kWorkers = 2;
  constexpr int kIters = 10;
  sim::Engine eng;
  SystemConfig cfg = RcConfig();
  cfg.net.seed = 8600;
  cfg.net.loss_probability = 0.30;
  cfg.call_timeout = Milliseconds(150);
  // Few attempts per call: under 30% loss, whole calls exhaust and get
  // re-issued with fresh request ids, which is exactly the case the
  // (page, origin, seq)-keyed flush dedup exists for — endpoint-level
  // duplicate suppression cannot catch it.
  cfg.call_max_attempts = 4;
  cfg.fault_retry_limit = 40;
  cfg.janitor_period = Milliseconds(100);
  cfg.confirm_probe_after = Milliseconds(300);
  System sys(eng, cfg,
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::FireflyProfile()});
  sys.Start();
  std::int64_t final_value = -1;
  sys.SpawnThread(0, "master", [&](Host& h) {
    GlobalAddr a = sys.Alloc(0, Reg::kLong, 1);
    h.Write<std::int64_t>(a, 0);
    sys.sync(0).SemInit(1, 1);  // mutex
    sys.sync(0).SemInit(2, 0);  // done
    for (int i = 1; i <= kWorkers; ++i) {
      sys.SpawnThread(i, "inc" + std::to_string(i), [&, a, i](Host& hh) {
        for (int k = 0; k < kIters; ++k) {
          sys.sync(i).P(1);
          const std::int64_t v = hh.Read<std::int64_t>(a);
          hh.Write<std::int64_t>(a, v + 1);
          sys.sync(i).V(1);
        }
        sys.sync(i).V(2);
      });
    }
    for (int i = 0; i < kWorkers; ++i) sys.sync(0).P(2);
    final_value = h.Read<std::int64_t>(a);
    h.runtime().Delay(Seconds(5));  // confirm/probe drain before quiescence
  });
  eng.Run();
  EXPECT_EQ(final_value, kWorkers * kIters)
      << "a lost-and-replayed release double-applied a diff";
  auto& st = sys.GatherStats();
  EXPECT_GT(st.Count("net.packets_dropped"), 0);
  EXPECT_GT(st.Count("dsm.rc_flushes_applied"), 0);
  // The dedup machinery genuinely ran: at least one flush call exhausted
  // its attempts after the home applied it, was re-issued with a fresh
  // request id, and was answered from the (page, origin, seq) replay map
  // instead of being applied twice. Seeded, so this is deterministic.
  EXPECT_GE(st.Count("dsm.rc_flush_replays"), 1);
  ExpectQuiescent(sys);
}

// One RC workload (mixed twin/home-dirty counter) pinned to what the
// deleted legacy scheduler (one OS thread per process, a linear scan per
// switch) produced: the engine must reproduce its end time, counter value
// and protocol stats exactly.
const std::map<std::string, std::int64_t> kPinnedRcStats = {
    {"dsm.pages_in", 12},
    {"dsm.rc_copies_kept", 12},
    {"dsm.rc_flush_bytes", 96},
    {"dsm.rc_flushes", 19},
    {"dsm.rc_flushes_applied", 12},
    {"dsm.rc_home_dirty_marks", 7},
    {"dsm.rc_notices_applied", 10},
    {"dsm.rc_self_invalidations", 0},
    {"dsm.rc_twins", 12},
    {"dsm.read_faults", 12},
    {"net.bytes_sent", 5966},
    {"net.packets_sent", 112},
    {"sync.rc_notices_recorded", 19},
};

struct RcCounterResult {
  SimTime end_time = 0;
  std::int64_t final_value = -1;
  std::map<std::string, std::int64_t> stats;  // the keys of kPinnedRcStats
};

RcCounterResult RunRcCounter() {
  sim::Engine eng;
  SystemConfig cfg = RcConfig();
  cfg.net.seed = 8700;
  System sys(eng, cfg,
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::FireflyProfile()});
  sys.Start();
  RcCounterResult res;
  sys.SpawnThread(0, "master", [&](Host& h) {
    GlobalAddr a = sys.Alloc(0, Reg::kLong, 1);
    h.Write<std::int64_t>(a, 0);
    sys.sync(0).SemInit(1, 1);
    sys.sync(0).SemInit(2, 0);
    for (int i = 0; i < 3; ++i) {
      sys.SpawnThread(i, "inc" + std::to_string(i), [&, a, i](Host& hh) {
        for (int k = 0; k < 6; ++k) {
          sys.sync(i).P(1);
          const std::int64_t v = hh.Read<std::int64_t>(a);
          hh.Write<std::int64_t>(a, v + 1);
          sys.sync(i).V(1);
        }
        sys.sync(i).V(2);
      });
    }
    for (int i = 0; i < 3; ++i) sys.sync(0).P(2);
    res.final_value = h.Read<std::int64_t>(a);
  });
  eng.Run();
  res.end_time = eng.Now();
  auto& st = sys.GatherStats();
  for (const auto& [key, value] : kPinnedRcStats) {
    res.stats[key] = st.Count(key);
  }
  return res;
}

TEST(RcEngineOracle, CounterReproducesPinnedLegacyStats) {
  const RcCounterResult got = RunRcCounter();
  EXPECT_EQ(got.end_time, 589939120);
  EXPECT_EQ(got.final_value, 18);
  EXPECT_EQ(got.stats, kPinnedRcStats);
}

// A diff flush names exactly the byte ranges it changed, so the home must
// *patch* its cached converted images in place (re-keying them to the new
// version) instead of evicting them: the unflushed bytes of a whole-page
// conversion are still correct. The post-flush read must both hit the cache
// and return the correctly converted new value.
TEST(RcConvertCache, DiffFlushPatchesCachedImageInsteadOfEvicting) {
  sim::Engine eng;
  SystemConfig cfg = RcConfig();
  cfg.net.seed = 8400;
  System sys(eng, cfg,
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::FireflyProfile()});
  sys.Start();

  std::int64_t changed = -1, untouched = -1;
  sys.SpawnThread(0, "master", [&](Host& h) {
    GlobalAddr a = sys.Alloc(0, Reg::kLong, 4);  // page 0: home = host 0
    h.Write<std::int64_t>(a, 1);
    h.Write<std::int64_t>(a + 8, 2);
    sys.sync(0).SemInit(1, 0);
    sys.sync(0).SemInit(2, 0);
    sys.sync(0).SemInit(3, 0);
    // Reader (VAX-class) faults first: the Sun home converts the page and
    // caches the converted image.
    sys.SpawnThread(1, "reader", [&, a](Host& hh) {
      EXPECT_EQ(hh.Read<std::int64_t>(a), 1);
      sys.sync(1).V(1);
      sys.sync(1).P(2);  // acquire: pull the writer's notice
      changed = hh.Read<std::int64_t>(a + 8);
      untouched = hh.Read<std::int64_t>(a);
      sys.sync(1).V(3);
    });
    // Writer twins the page and releases: the diff flush carries only the
    // changed range, and the home patches its cached image.
    sys.SpawnThread(2, "writer", [&, a](Host& hh) {
      sys.sync(2).P(1);
      hh.Write<std::int64_t>(a + 8, 99);
      sys.sync(2).V(2);  // release: flush the twin to the home
    });
    sys.sync(0).P(3);
    h.runtime().Delay(Seconds(2));
  });
  eng.Run();
  EXPECT_EQ(changed, 99) << "patched range must carry the flushed bytes";
  EXPECT_EQ(untouched, 1) << "bytes outside the diff must survive the patch";
  auto& st = sys.GatherStats();
  EXPECT_GE(st.Count("dsm.rc_flushes"), 1);
  EXPECT_GE(st.Count("dsm.convert_cache_patched"), 1)
      << "the flush must patch the cached image, not drop it";
  ExpectQuiescent(sys);
}

}  // namespace
}  // namespace mermaid::dsm
