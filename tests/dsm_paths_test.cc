// Focused tests of protocol paths only exercised by benches elsewhere:
// allocation-extent growth, dedup eviction, and reassembler garbage
// collection.
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
