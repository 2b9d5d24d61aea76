#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mermaid/arch/arch.h"
#include "mermaid/base/rng.h"
#include "mermaid/net/fragment.h"
#include "mermaid/net/network.h"
#include "mermaid/net/reqrep.h"
#include "mermaid/sim/engine.h"

namespace mermaid::net {
namespace {

std::vector<std::uint8_t> Blob(std::size_t n, std::uint64_t seed) {
  base::Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.NextU64());
  return v;
}

TEST(Network, DeliversPacketWithModeledLatency) {
  sim::Engine eng;
  Network net(eng, {});
  auto rx0 = net.Attach(0, &arch::Sun3Profile());
  net.Attach(1, &arch::Sun3Profile());

  eng.Spawn("sender", [&] {
    Packet p;
    p.src = 1;
    p.dst = 0;
    p.kind = MsgKind::kControl;
    p.bytes = Blob(100, 1);
    net.Send(std::move(p));
  });
  SimTime arrival = -1;
  eng.Spawn("receiver", [&] {
    auto p = rx0.Recv();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->src, 1);
    EXPECT_EQ(p->bytes.size(), 100u);
    arrival = eng.Now();
  });
  eng.Run();
  // control_fixed (2.1 ms) + 100 B * 0.8 us/B = 2.18 ms.
  EXPECT_NEAR(ToMillis(arrival), 2.18, 0.01);
}

TEST(Network, LossDropsPackets) {
  sim::Engine eng;
  Network::Config cfg;
  cfg.loss_probability = 0.5;
  cfg.seed = 7;
  Network net(eng, cfg);
  auto rx0 = net.Attach(0, &arch::Sun3Profile());
  net.Attach(1, &arch::Sun3Profile());
  int received = 0;
  eng.Spawn("sender", [&] {
    for (int i = 0; i < 200; ++i) {
      Packet p;
      p.src = 1;
      p.dst = 0;
      p.bytes = {1, 2, 3};
      net.Send(std::move(p));
    }
    eng.Delay(Seconds(1));
  });
  eng.Spawn(
      "receiver",
      [&] {
        while (rx0.Recv()) ++received;
      },
      /*daemon=*/true);
  eng.Run();
  EXPECT_GT(received, 50);
  EXPECT_LT(received, 150);
  EXPECT_EQ(received + net.stats().Count("net.packets_dropped"), 200);
}

// Runs a message of `size` bytes through Fragmenter -> Network ->
// Reassembler and returns (payload intact, arrival time ms).
struct FragResult {
  bool ok = false;
  double ms = 0;
  std::int64_t packets = 0;
};

FragResult RunFragmentTransfer(std::size_t size, const arch::ArchProfile& a,
                               const arch::ArchProfile& b) {
  sim::Engine eng;
  Network net(eng, {});
  Fragmenter frag_unused(eng, net, 99);  // exercise multi-instance safety
  auto rx1 = net.Attach(1, &b);
  net.Attach(0, &a);
  net.Attach(99, &a);

  auto payload = Blob(size, size);
  FragResult result;
  eng.Spawn("sender", [&] {
    Fragmenter frag(eng, net, 0);
    Message m;
    m.src = 0;
    m.dst = 1;
    m.kind = MsgKind::kData;
    m.payload = payload;
    frag.Send(std::move(m));
  });
  eng.Spawn("receiver", [&] {
    Reassembler re(eng);
    while (auto pkt = rx1.Recv()) {
      if (auto msg = re.OnPacket(*pkt)) {
        result.ok = msg->payload == payload && msg->kind == MsgKind::kData;
        result.ms = ToMillis(eng.Now());
        return;
      }
    }
  });
  eng.Run();
  result.packets = net.stats().Count("net.packets_sent");
  return result;
}

TEST(Fragmentation, SinglePacketMessage) {
  auto r = RunFragmentTransfer(256, arch::Sun3Profile(), arch::Sun3Profile());
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.packets, 1);
}

TEST(Fragmentation, MultiPacketReassembly) {
  auto r = RunFragmentTransfer(8192, arch::Sun3Profile(), arch::Sun3Profile());
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.packets, 6);  // 8192 / 1485-byte payloads
}

// Table 2 shape: the end-to-end 8 KB / 1 KB transfer model should land near
// the paper's measurements for all four host-pair directions.
struct PairCase {
  const char* name;
  const arch::ArchProfile& src;
  const arch::ArchProfile& dst;
  double paper_8k;
  double paper_1k;
};

class TransferCost : public ::testing::TestWithParam<int> {};

TEST_P(TransferCost, MatchesTable2Within15Percent) {
  const PairCase cases[] = {
      {"Sun->Sun", arch::Sun3Profile(), arch::Sun3Profile(), 18.0, 5.1},
      {"Sun->Ffly", arch::Sun3Profile(), arch::FireflyProfile(), 27.0, 7.6},
      {"Ffly->Sun", arch::FireflyProfile(), arch::Sun3Profile(), 25.0, 7.3},
      {"Ffly->Ffly", arch::FireflyProfile(), arch::FireflyProfile(), 33.0,
       6.7},
  };
  const PairCase& c = cases[GetParam()];
  auto r8 = RunFragmentTransfer(8192, c.src, c.dst);
  auto r1 = RunFragmentTransfer(1024, c.src, c.dst);
  EXPECT_TRUE(r8.ok);
  EXPECT_TRUE(r1.ok);
  EXPECT_NEAR(r8.ms, c.paper_8k, c.paper_8k * 0.15) << c.name;
  EXPECT_NEAR(r1.ms, c.paper_1k, c.paper_1k * 0.15) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Pairs, TransferCost, ::testing::Range(0, 4));

TEST(ReqRep, BasicCallAndReply) {
  sim::Engine eng;
  Network net(eng, {});
  Endpoint a(eng, net, 0, &arch::Sun3Profile());
  Endpoint b(eng, net, 1, &arch::FireflyProfile());
  b.SetHandler(1, [&](RequestContext ctx) {
    EXPECT_EQ(ctx.origin(), 0);
    std::vector<std::uint8_t> reply(ctx.body().begin(), ctx.body().end());
    reply.push_back(0xAA);
    ctx.Reply(std::move(reply));
  });
  a.Start();
  b.Start();
  eng.Spawn("client", [&] {
    auto r = a.CallWithStatus(1, 1, {1, 2, 3});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.body.ToVector(), (std::vector<std::uint8_t>{1, 2, 3, 0xAA}));
  });
  eng.Run();
}

TEST(ReqRep, ForwardDeliversReplyToOrigin) {
  sim::Engine eng;
  Network net(eng, {});
  Endpoint a(eng, net, 0, &arch::Sun3Profile());
  Endpoint b(eng, net, 1, &arch::Sun3Profile());
  Endpoint c(eng, net, 2, &arch::FireflyProfile());
  // b acts as a manager: forwards op 5 to host 2.
  b.SetHandler(5, [&](RequestContext ctx) {
    ctx.Forward(2, ctx.body());
  });
  c.SetHandler(5, [&](RequestContext ctx) {
    EXPECT_EQ(ctx.origin(), 0);  // origin survives the forward
    ctx.Reply({9, 9});
  });
  a.Start();
  b.Start();
  c.Start();
  eng.Spawn("client", [&] {
    auto r = a.CallWithStatus(1, 5, {4});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.body.ToVector(), (std::vector<std::uint8_t>{9, 9}));
  });
  eng.Run();
  EXPECT_EQ(b.stats().Count("reqrep.forwards"), 1);
  // The reply must have gone straight from c to a, not through b.
  EXPECT_EQ(c.stats().Count("reqrep.replies_sent"), 1);
  EXPECT_EQ(b.stats().Count("reqrep.replies_sent"), 0);
}

TEST(ReqRep, MultiCallCollectsAllReplies) {
  sim::Engine eng;
  Network net(eng, {});
  Endpoint a(eng, net, 0, &arch::Sun3Profile());
  std::vector<std::unique_ptr<Endpoint>> servers;
  for (HostId id = 1; id <= 4; ++id) {
    auto ep = std::make_unique<Endpoint>(eng, net, id,
                                         &arch::FireflyProfile());
    ep->SetHandler(7, [id](RequestContext ctx) {
      ctx.Reply({static_cast<std::uint8_t>(id)});
    });
    ep->Start();
    servers.push_back(std::move(ep));
  }
  a.Start();
  eng.Spawn("client", [&] {
    auto rs = a.MultiCallWithStatus({1, 2, 3, 4}, 7, {});
    ASSERT_TRUE(rs.ok());
    ASSERT_EQ(rs.replies.size(), 4u);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(rs.replies[i].ToVector(),
                std::vector<std::uint8_t>{static_cast<std::uint8_t>(i + 1)});
    }
  });
  eng.Run();
}

TEST(ReqRep, NotifyIsOneWayAndNotDeduped) {
  sim::Engine eng;
  Network net(eng, {});
  Endpoint a(eng, net, 0, &arch::Sun3Profile());
  Endpoint b(eng, net, 1, &arch::Sun3Profile());
  int notified = 0;
  b.SetHandler(9, [&](RequestContext) { ++notified; });
  a.Start();
  b.Start();
  eng.Spawn("client", [&] {
    a.Notify(1, 9, {1});
    a.Notify(1, 9, {2});
    a.Notify(1, 9, {3});
    eng.Delay(Milliseconds(50));
  });
  eng.Run();
  EXPECT_EQ(notified, 3);
}

// Failure injection: with 20% packet loss, retransmission must deliver all
// calls and duplicate suppression must keep handler invocations exactly-once.
class ReqRepLoss : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReqRepLoss, RetransmissionSurvivesLoss) {
  sim::Engine eng;
  Network::Config cfg;
  cfg.loss_probability = 0.2;
  cfg.seed = GetParam();
  Network net(eng, cfg);
  Endpoint::Config epcfg;
  epcfg.call_timeout = Milliseconds(80);
  epcfg.max_attempts = 30;
  Endpoint a(eng, net, 0, &arch::Sun3Profile(), epcfg);
  Endpoint b(eng, net, 1, &arch::FireflyProfile(), epcfg);
  int handled = 0;
  b.SetHandler(3, [&](RequestContext ctx) {
    ++handled;
    std::vector<std::uint8_t> echo(ctx.body().begin(), ctx.body().end());
    ctx.Reply(std::move(echo), MsgKind::kData);
  });
  a.Start();
  b.Start();
  constexpr int kCalls = 25;
  int succeeded = 0;
  eng.Spawn("client", [&] {
    for (int i = 0; i < kCalls; ++i) {
      auto body = Blob(3000, i);  // multi-fragment: loss hits harder
      auto r = a.CallWithStatus(1, 3, body);
      if (r.ok()) {
        EXPECT_EQ(r.body.ToVector(), body);
        ++succeeded;
      }
    }
  });
  eng.Run();
  EXPECT_EQ(succeeded, kCalls);
  // Exactly-once handler invocation despite retransmissions.
  EXPECT_EQ(handled, kCalls);
  EXPECT_GT(a.stats().Count("reqrep.retransmits"), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReqRepLoss,
                         ::testing::Values(3, 17, 99, 1990));

// Injected duplication and reordering on top of loss: all calls must still
// succeed and the handler must run exactly once per call.
TEST(ReqRep, DuplicationAndReorderingStayExactlyOnce) {
  sim::Engine eng;
  Network::Config cfg;
  cfg.loss_probability = 0.1;
  cfg.seed = 42;
  Network net(eng, cfg);
  FaultPlan plan;
  plan.duplicate_probability = 0.3;
  plan.reorder_probability = 0.3;
  net.SetFaultPlan(plan);
  Endpoint::Config epcfg;
  epcfg.call_timeout = Milliseconds(80);
  epcfg.max_attempts = 30;
  Endpoint a(eng, net, 0, &arch::Sun3Profile(), epcfg);
  Endpoint b(eng, net, 1, &arch::FireflyProfile(), epcfg);
  int handled = 0;
  b.SetHandler(3, [&](RequestContext ctx) {
    ++handled;
    std::vector<std::uint8_t> echo(ctx.body().begin(), ctx.body().end());
    ctx.Reply(std::move(echo));
  });
  a.Start();
  b.Start();
  constexpr int kCalls = 25;
  int succeeded = 0;
  eng.Spawn("client", [&] {
    for (int i = 0; i < kCalls; ++i) {
      std::vector<std::uint8_t> body{static_cast<std::uint8_t>(i)};
      auto r = a.CallWithStatus(1, 3, body);
      if (r.ok() && r.body.ToVector() == body) ++succeeded;
    }
  });
  eng.Run();
  EXPECT_EQ(succeeded, kCalls);
  EXPECT_EQ(handled, kCalls);
  EXPECT_GT(net.stats().Count("net.dup_injected"), 0);
  EXPECT_GT(net.stats().Count("net.reorder_injected"), 0);
}

// Typed call outcomes: a reachable peer yields kOk with the reply body; a
// crashed peer exhausts its attempts and yields kTimedOut (with the timeout
// counted and backoff applied), never a silent empty success.
TEST(ReqRep, CallStatusDistinguishesTimeoutFromSuccess) {
  sim::Engine eng;
  Network net(eng, {});
  Endpoint a(eng, net, 0, &arch::Sun3Profile());
  Endpoint b(eng, net, 1, &arch::FireflyProfile());
  Endpoint c(eng, net, 2, &arch::FireflyProfile());
  b.SetHandler(4, [](RequestContext ctx) { ctx.Reply({7}); });
  c.SetHandler(4, [](RequestContext ctx) { ctx.Reply({8}); });
  a.Start();
  b.Start();
  c.Start();
  net.CrashHost(2);
  eng.Spawn("client", [&] {
    CallOpts opts;
    opts.timeout = Milliseconds(50);
    opts.max_attempts = 3;
    auto ok = a.CallWithStatus(1, 4, {}, MsgKind::kControl, opts);
    EXPECT_EQ(ok.status, CallStatus::kOk);
    EXPECT_EQ(ok.body, std::vector<std::uint8_t>{7});
    auto dead = a.CallWithStatus(2, 4, {}, MsgKind::kControl, opts);
    EXPECT_EQ(dead.status, CallStatus::kTimedOut);
    EXPECT_TRUE(dead.body.empty());
  });
  eng.Run();
  EXPECT_GE(a.stats().Count("reqrep.call_timeouts"), 1);
  EXPECT_GT(a.stats().Count("reqrep.backoff_total_ms"), 0);
}

// Partial multicast outcomes: the caller learns exactly which destinations
// timed out and keeps the replies that did arrive, so it can retry just the
// missing targets (the invalidation-multicast pattern).
TEST(ReqRep, MultiCallReportsPartialTimeouts) {
  sim::Engine eng;
  Network net(eng, {});
  Endpoint a(eng, net, 0, &arch::Sun3Profile());
  Endpoint b(eng, net, 1, &arch::FireflyProfile());
  Endpoint c(eng, net, 2, &arch::FireflyProfile());
  b.SetHandler(4, [](RequestContext ctx) { ctx.Reply({7}); });
  c.SetHandler(4, [](RequestContext ctx) { ctx.Reply({8}); });
  a.Start();
  b.Start();
  c.Start();
  net.CrashHost(2);
  eng.Spawn("client", [&] {
    CallOpts opts;
    opts.timeout = Milliseconds(50);
    opts.max_attempts = 3;
    auto rs = a.MultiCallWithStatus({1, 2}, 4, {}, MsgKind::kControl, opts);
    EXPECT_EQ(rs.status, CallStatus::kTimedOut);
    ASSERT_EQ(rs.replies.size(), 2u);
    EXPECT_EQ(rs.replies[0], std::vector<std::uint8_t>{7});
    EXPECT_TRUE(rs.replies[1].empty());
    ASSERT_EQ(rs.timed_out.size(), 1u);
    EXPECT_EQ(rs.timed_out[0], 1u);
    // After a restart the same targets all answer.
    net.RestartHost(2);
    auto rs2 = a.MultiCallWithStatus({1, 2}, 4, {}, MsgKind::kControl, opts);
    EXPECT_EQ(rs2.status, CallStatus::kOk);
  });
  eng.Run();
}

// Forwarded requests under loss: the origin retransmits, the manager
// re-forwards from its dedup record, the owner replays its reply.
TEST(ReqRep, ForwardingSurvivesLoss) {
  sim::Engine eng;
  Network::Config cfg;
  cfg.loss_probability = 0.25;
  cfg.seed = 12345;
  Network net(eng, cfg);
  Endpoint::Config epcfg;
  epcfg.call_timeout = Milliseconds(60);
  epcfg.max_attempts = 40;
  Endpoint a(eng, net, 0, &arch::Sun3Profile(), epcfg);
  Endpoint b(eng, net, 1, &arch::Sun3Profile(), epcfg);
  Endpoint c(eng, net, 2, &arch::FireflyProfile(), epcfg);
  int owner_handled = 0;
  b.SetHandler(5, [&](RequestContext ctx) { ctx.Forward(2, ctx.body()); });
  c.SetHandler(5, [&](RequestContext ctx) {
    ++owner_handled;
    ctx.Reply({42});
  });
  a.Start();
  b.Start();
  c.Start();
  int ok = 0;
  eng.Spawn("client", [&] {
    for (int i = 0; i < 20; ++i) {
      auto r = a.CallWithStatus(1, 5, {static_cast<std::uint8_t>(i)});
      if (r.ok() && r.body.ToVector() == std::vector<std::uint8_t>{42}) ++ok;
    }
  });
  eng.Run();
  EXPECT_EQ(ok, 20);
  EXPECT_EQ(owner_handled, 20);  // exactly-once at the final server
}

}  // namespace
}  // namespace mermaid::net
