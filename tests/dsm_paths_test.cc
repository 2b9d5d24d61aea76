// Focused tests of protocol paths only exercised by benches elsewhere:
// allocation-extent growth, the allocator's type-set batches, dedup
// eviction, and reassembler garbage collection.
#include <gtest/gtest.h>

#include "mermaid/dsm/system.h"
#include "mermaid/base/wire.h"
#include "mermaid/net/fragment.h"
#include "mermaid/sim/engine.h"

namespace mermaid::dsm {
namespace {

using Reg = arch::TypeRegistry;

TEST(AllocExtent, GrowingAPageExtentIsVisibleThroughTransfers) {
  sim::Engine eng;
  SystemConfig cfg;
  cfg.region_bytes = 128 * 1024;
  System sys(eng, cfg, {&arch::Sun3Profile(), &arch::FireflyProfile()});
  sys.Start();
  sys.SpawnThread(0, "writer", [&](Host& h) {
    GlobalAddr a = sys.Alloc(0, Reg::kInt, 8);
    for (int i = 0; i < 8; ++i) h.Write<std::int32_t>(a + 4 * i, 10 + i);
    sys.sync(0).EventSet(1);
    sys.sync(0).EventWait(2);
    // Extend the same page's allocation and fill the new elements.
    GlobalAddr b = sys.Alloc(0, Reg::kInt, 8);
    EXPECT_EQ(b, a + 32);  // same page, bumped
    // The page is currently owned by host 1; these writes fault it back.
    for (int i = 0; i < 8; ++i) h.Write<std::int32_t>(b + 4 * i, 20 + i);
    sys.sync(0).EventSet(3);
  });
  sys.SpawnThread(1, "reader", [&](Host& h) {
    sys.sync(1).EventWait(1);
    // Take the page (write) so the writer's extension must transfer back.
    h.Write<std::int32_t>(0, 10);
    sys.sync(1).EventSet(2);
    sys.sync(1).EventWait(3);
    for (int i = 1; i < 8; ++i) {
      EXPECT_EQ(h.Read<std::int32_t>(4ull * i), 10 + i);
    }
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(h.Read<std::int32_t>(32 + 4ull * i), 20 + i);
    }
  });
  eng.Run();
}

// Alloc tells each touched page's manager the page's type and extent
// before it returns the address: host 0 applies its own pages, and every
// other manager gets one kOpTypeSet batch. Four Fireflies (1 KB pages,
// page p managed by host p % 4) and 7.5 pages of ints: pages 0-7, two per
// manager, the last one half full.
TEST(AllocExtent, TypeSetIsOneCallPerRemoteManager) {
  sim::Engine eng;
  SystemConfig cfg;  // the fixed directory
  cfg.region_bytes = 64 * 1024;
  System sys(eng, cfg,
             {&arch::FireflyProfile(), &arch::FireflyProfile(),
              &arch::FireflyProfile(), &arch::FireflyProfile()});
  ASSERT_EQ(sys.page_bytes(), 1024u);
  sys.Start();
  sys.SpawnThread(0, "allocator", [&](Host&) {
    ASSERT_EQ(sys.Alloc(0, Reg::kInt, 7 * 256 + 128), 0u);
    // A manager starts out holding every page it manages, so its own copy
    // shows what it was told.
    for (PageNum p = 0; p < 8; ++p) {
      const LocalPageEntry e = sys.host(p % 4).LocalEntrySnapshot(p);
      EXPECT_EQ(e.type, Reg::kInt) << "page " << p;
      EXPECT_EQ(e.alloc_bytes, p == 7 ? 512u : 1024u) << "page " << p;
    }
  });
  eng.Run();
  // A call and its ack per remote manager (hosts 1-3), not per page.
  EXPECT_EQ(sys.GatherStats().Count("reqrep.tx_msgs.type_set"), 2 * 3);
}

// Under crash recovery, an Alloc whose pages include one managed by a host
// that is down with amnesia leaves that manager's type-set batch to the
// restart, which replays the allocator's records into it. Sun + 2
// Fireflies, 8 KB pages, page p managed by host p % 3; 6,144 ints fill
// pages 0-2, and host 2 is down for 400 s, past the call budget (a call
// that waited for it would abort the run). After the restart the Sun
// writes every int and a Firefly reads them back. Without the replayed
// kInt type, host 2 would grant page 2 as bytes and the Firefly would read
// the Sun's big-endian ints unconverted.
struct AllocAroundCrash {
  SimDuration alloc_took = -1;  // of the Alloc that touches page 2
  int mismatches = -1;
  std::int64_t type_set_msgs = 0;
  std::int64_t crashes = 0;
};

// `mid_call`: host 2 crashes while the batch for page 2 is on the wire
// (the network drops it with the rest of host 2's traffic), rather than
// before the Alloc starts.
AllocAroundCrash RunAllocAroundCrash(bool mid_call) {
  sim::Engine eng;
  SystemConfig cfg;
  cfg.region_bytes = 64 * 1024;
  cfg.crash_recovery = true;
  System sys(eng, cfg,
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::FireflyProfile()});
  EXPECT_EQ(sys.page_bytes(), 8192u);
  sys.Start();
  constexpr int kCount = 6144;
  const auto value = [](int i) { return i * 7919 - 3; };
  AllocAroundCrash out;
  sys.SpawnThread(0, "sun", [&](Host& h) {
    int first = 0;  // ints allocated before the Alloc that touches page 2
    if (mid_call) {
      first = 4096;  // pages 0 and 1: the next Alloc calls host 2 alone
      EXPECT_EQ(sys.Alloc(0, Reg::kInt, first), 0u);
      sys.SpawnThread(0, "crasher", [&](Host& hh) {
        hh.runtime().Delay(Microseconds(1));
        sys.CrashAndRestartHost(2, Seconds(400));
      });
    } else {
      sys.CrashAndRestartHost(2, Seconds(400));
    }
    const SimTime t0 = h.runtime().Now();
    EXPECT_EQ(sys.Alloc(0, Reg::kInt, kCount - first), 4ull * first);
    out.alloc_took = h.runtime().Now() - t0;
    h.runtime().Delay(Seconds(410));  // past the restart and its rebuild
    for (int i = 0; i < kCount; ++i) {
      h.Write<std::int32_t>(4ull * i, value(i));
    }
    sys.sync(0).EventSet(1);
  });
  sys.SpawnThread(1, "ffly", [&](Host& h) {
    sys.sync(1).EventWait(1);
    out.mismatches = 0;
    for (int i = 0; i < kCount; ++i) {
      if (h.Read<std::int32_t>(4ull * i) != value(i)) ++out.mismatches;
    }
  });
  eng.Run();
  out.type_set_msgs = sys.GatherStats().Count("reqrep.tx_msgs.type_set");
  out.crashes = sys.GatherStats().Count("dsm.crashes");
  return out;
}

TEST(AllocExtent, TypeSetForCrashedManagerIsReplayedAtRestart) {
  const AllocAroundCrash r = RunAllocAroundCrash(/*mid_call=*/false);
  // One round trip, to host 1; host 2's batch was never sent.
  EXPECT_GE(r.alloc_took, 0);
  EXPECT_LT(r.alloc_took, Milliseconds(100));
  EXPECT_EQ(r.type_set_msgs, 2);
  EXPECT_EQ(r.crashes, 1);
  EXPECT_EQ(r.mismatches, 0);
}

TEST(AllocExtent, TypeSetCallCutByAManagerCrashIsReplayedAtRestart) {
  const AllocAroundCrash r = RunAllocAroundCrash(/*mid_call=*/true);
  // The call ran out its budget while host 2 was down, and the Alloc
  // returned without waiting for the restart.
  EXPECT_GT(r.alloc_took, Seconds(10));
  EXPECT_LT(r.alloc_took, Seconds(400));
  EXPECT_EQ(r.crashes, 1);
  EXPECT_EQ(r.mismatches, 0);
}

TEST(Reassembler, StalePartialsAreCollected) {
  sim::Engine eng;
  net::Network net(eng, {});
  auto rx = net.Attach(1, &arch::Sun3Profile());
  net.Attach(0, &arch::Sun3Profile());
  eng.Spawn("t", [&] {
    net::Reassembler re(eng, /*stale_after=*/Milliseconds(100));
    // Hand-build fragment 0 of a 3-fragment message.
    base::WireWriter w;
    w.U64(/*msg_id=*/5);
    w.U16(/*src=*/0);
    w.U16(/*index=*/0);
    w.U16(/*count=*/3);
    w.U8(0);
    std::vector<std::uint8_t> payload(100, 7);
    w.Raw(payload);
    net::Packet pkt;
    pkt.src = 0;
    pkt.dst = 1;
    pkt.bytes = std::move(w).Take();
    EXPECT_FALSE(re.OnPacket(pkt).has_value());
    eng.Delay(Milliseconds(200));
    // Any later packet triggers collection of the stale partial.
    base::WireWriter w2;
    w2.U64(6);
    w2.U16(0);
    w2.U16(0);
    w2.U16(1);
    w2.U8(0);
    net::Packet pkt2;
    pkt2.src = 0;
    pkt2.dst = 1;
    pkt2.bytes = std::move(w2).Take();
    EXPECT_TRUE(re.OnPacket(pkt2).has_value());
    EXPECT_EQ(re.stats().Count("frag.stale_partials_dropped"), 1);
  });
  eng.Run();
  (void)rx;
}

TEST(Dedup, WindowEvictionForgetsOldRequests) {
  sim::Engine eng;
  net::Network net(eng, {});
  net::Endpoint::Config epcfg;
  epcfg.dedup_window = 4;  // tiny window
  net::Endpoint a(eng, net, 0, &arch::Sun3Profile(), epcfg);
  net::Endpoint b(eng, net, 1, &arch::Sun3Profile(), epcfg);
  int handled = 0;
  b.SetHandler(1, [&](net::RequestContext ctx) {
    ++handled;
    ctx.Reply({});
  });
  a.Start();
  b.Start();
  eng.Spawn("client", [&] {
    for (int i = 0; i < 10; ++i) {
      auto r = a.CallWithStatus(1, 1, {static_cast<std::uint8_t>(i)});
      EXPECT_TRUE(r.ok());
    }
  });
  eng.Run();
  EXPECT_EQ(handled, 10);  // eviction never breaks fresh requests
}

}  // namespace
}  // namespace mermaid::dsm
