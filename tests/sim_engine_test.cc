#include <atomic>
#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mermaid/base/time.h"
#include "mermaid/sim/engine.h"
#include "mermaid/sim/realtime.h"
#include "mermaid/sim/runtime.h"

#include "digest.h"

namespace mermaid::sim {
namespace {

TEST(SimEngine, DelayAdvancesVirtualTime) {
  Engine eng;
  SimTime observed = -1;
  eng.Spawn("p", [&] {
    eng.Delay(Milliseconds(5));
    observed = eng.Now();
  });
  SimTime end = eng.Run();
  EXPECT_EQ(observed, Milliseconds(5));
  EXPECT_EQ(end, Milliseconds(5));
}

TEST(SimEngine, ParallelDelaysOverlapInVirtualTime) {
  Engine eng;
  for (int i = 0; i < 10; ++i) {
    eng.Spawn("p" + std::to_string(i), [&] { eng.Delay(Milliseconds(100)); });
  }
  // Ten processes each "compute" 100 ms concurrently: virtual end time is
  // 100 ms, not 1 s.
  EXPECT_EQ(eng.Run(), Milliseconds(100));
}

TEST(SimEngine, ChannelTransfersMessageWithLatency) {
  Engine eng;
  Chan<int> ch(eng);
  SimTime recv_time = -1;
  int value = 0;
  eng.Spawn("sender", [&] {
    eng.Delay(Milliseconds(1));
    ch.Send(42, /*delay=*/Milliseconds(3));
  });
  eng.Spawn("receiver", [&] {
    auto v = ch.Recv();
    ASSERT_TRUE(v.has_value());
    value = *v;
    recv_time = eng.Now();
  });
  eng.Run();
  EXPECT_EQ(value, 42);
  EXPECT_EQ(recv_time, Milliseconds(4));
}

TEST(SimEngine, MessagesArriveInDeliveryTimeOrder) {
  Engine eng;
  Chan<int> ch(eng);
  std::vector<int> order;
  eng.Spawn("sender", [&] {
    ch.Send(3, Milliseconds(30));
    ch.Send(1, Milliseconds(10));
    ch.Send(2, Milliseconds(20));
  });
  eng.Spawn("receiver", [&] {
    for (int i = 0; i < 3; ++i) {
      auto v = ch.Recv();
      ASSERT_TRUE(v.has_value());
      order.push_back(*v);
    }
  });
  eng.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimEngine, FifoAmongEqualDeliveryTimes) {
  Engine eng;
  Chan<int> ch(eng);
  std::vector<int> order;
  eng.Spawn("sender", [&] {
    for (int i = 0; i < 5; ++i) ch.Send(i, Milliseconds(1));
  });
  eng.Spawn("receiver", [&] {
    for (int i = 0; i < 5; ++i) order.push_back(*ch.Recv());
  });
  eng.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimEngine, RecvTimeoutFiresAtDeadline) {
  Engine eng;
  Chan<int> ch(eng);
  bool timed_out = false;
  SimTime when = -1;
  eng.Spawn("receiver", [&] {
    auto v = ch.RecvUntil(Milliseconds(7), &timed_out);
    EXPECT_FALSE(v.has_value());
    when = eng.Now();
  });
  eng.Run();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(when, Milliseconds(7));
}

TEST(SimEngine, MessageBeatsTimeout) {
  Engine eng;
  Chan<int> ch(eng);
  bool timed_out = true;
  eng.Spawn("sender", [&] { ch.Send(5, Milliseconds(2)); });
  eng.Spawn("receiver", [&] {
    auto v = ch.RecvUntil(Milliseconds(10), &timed_out);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 5);
    EXPECT_EQ(eng.Now(), Milliseconds(2));
  });
  eng.Run();
  EXPECT_FALSE(timed_out);
}

TEST(SimEngine, DaemonUnwindsOnShutdown) {
  Engine eng;
  Chan<int> ch(eng);
  int served = 0;
  bool daemon_exited = false;
  eng.Spawn(
      "server",
      [&] {
        while (auto m = ch.Recv()) ++served;
        daemon_exited = true;
      },
      /*daemon=*/true);
  eng.Spawn("client", [&] {
    ch.Send(1);
    ch.Send(2);
    eng.Delay(Milliseconds(1));
  });
  eng.Run();
  EXPECT_EQ(served, 2);
  EXPECT_TRUE(daemon_exited);
}

TEST(SimEngine, SpawnFromWithinProcess) {
  Engine eng;
  std::vector<int> order;
  eng.Spawn("parent", [&] {
    order.push_back(1);
    eng.Spawn("child", [&] { order.push_back(3); });
    order.push_back(2);
    eng.Delay(Milliseconds(1));
    order.push_back(4);
  });
  eng.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(SimEngine, TryRecvDoesNotBlock) {
  Engine eng;
  Chan<int> ch(eng);
  eng.Spawn("p", [&] {
    EXPECT_FALSE(ch.TryRecv().has_value());
    ch.Send(9, Milliseconds(1));
    EXPECT_FALSE(ch.TryRecv().has_value());  // not yet deliverable
    eng.Delay(Milliseconds(1));
    auto v = ch.TryRecv();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 9);
  });
  eng.Run();
}

// Runs a mixed workload twice and requires identical event interleavings.
TEST(SimEngine, DeterministicInterleaving) {
  auto run_once = [](std::vector<std::string>& trace) -> std::uint64_t {
    Engine eng;
    Chan<std::string> ch(eng);
    for (int i = 0; i < 4; ++i) {
      eng.Spawn("w" + std::to_string(i), [&, i] {
        for (int k = 0; k < 5; ++k) {
          eng.Delay(Microseconds(100 * (i + 1)));
          ch.Send("w" + std::to_string(i) + "/" + std::to_string(k),
                  Microseconds(50));
        }
      });
    }
    eng.Spawn("collector", [&] {
      for (int n = 0; n < 20; ++n) {
        auto m = ch.Recv();
        if (!m) break;
        trace.push_back(*m);
      }
    });
    eng.Run();
    return eng.switch_count();
  };
  std::vector<std::string> t1, t2;
  auto s1 = run_once(t1);
  auto s2 = run_once(t2);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(t1.size(), 20u);
}

TEST(SimEngine, ManyProcessesStress) {
  Engine eng;
  Chan<int> ch(eng);
  constexpr int kProcs = 50;
  constexpr int kMsgs = 40;
  long long sum = 0;
  for (int i = 0; i < kProcs; ++i) {
    eng.Spawn("p" + std::to_string(i), [&, i] {
      for (int k = 0; k < kMsgs; ++k) {
        eng.Delay(Microseconds(1 + (i * 7 + k) % 13));
        ch.Send(1);
      }
    });
  }
  eng.Spawn("sink", [&] {
    for (int n = 0; n < kProcs * kMsgs; ++n) {
      auto v = ch.Recv();
      if (!v) break;
      sum += *v;
    }
  });
  eng.Run();
  EXPECT_EQ(sum, kProcs * kMsgs);
}

// --- pinned legacy oracle ------------------------------------------------
//
// The engine used to ship a second scheduler — one OS thread per process, a
// linear scan per switch — as the reference whose event order calibrated
// every table. Its results on the workloads below were captured before it
// was deleted and are pinned here; the one engine must reproduce them
// exactly. The churn workload mixes request/reply with deadlines that
// sometimes fire and sometimes get beaten by the reply (leaving stale heap
// entries behind), bursts of sends, and plain delays; the ping-pong is the
// fast-resume case.

struct ChurnResult {
  std::vector<std::string> trace;
  SimTime end = 0;
  std::uint64_t switches = 0;
};

ChurnResult RunChurnWorkload() {
  ChurnResult r;
  Engine eng;
  constexpr int kWorkers = 6;
  constexpr int kRounds = 25;
  Chan<int> req(eng);
  std::vector<Chan<int>> replies;
  replies.reserve(kWorkers);
  for (int i = 0; i < kWorkers; ++i) replies.emplace_back(eng);
  // Server answers fast or slow; slow replies lose to the caller deadline,
  // so some deadlines fire while fast replies strand theirs in the heap.
  eng.Spawn(
      "server",
      [&] {
        for (;;) {
          auto m = req.Recv();
          if (!m) return;
          const int who = *m % kWorkers;
          const int k = *m / kWorkers;
          eng.Delay(Microseconds(k % 5 == 0 ? 300 : 20));
          replies[static_cast<std::size_t>(who)].Send(k, Microseconds(10));
        }
      },
      /*daemon=*/true);
  for (int i = 0; i < kWorkers; ++i) {
    eng.Spawn("w" + std::to_string(i), [&, i] {
      for (int k = 0; k < kRounds; ++k) {
        eng.Delay(Microseconds(13 * (i + 1) + k));
        req.Send(k * kWorkers + i);
        bool timed_out = false;
        auto v = replies[static_cast<std::size_t>(i)].RecvUntil(
            eng.Now() + Microseconds(150), &timed_out);
        r.trace.push_back(std::to_string(i) + "/" + std::to_string(k) + "@" +
                          std::to_string(eng.Now()) + (v ? ":ok" : ":to"));
        if (timed_out) {
          // Drain the late reply so the next round's reply isn't
          // misattributed.
          replies[static_cast<std::size_t>(i)].Recv();
        }
      }
    });
  }
  eng.Spawn("ticker", [&] {
    for (int k = 0; k < 40; ++k) {
      eng.Delay(Microseconds(90));
      r.trace.push_back("tick@" + std::to_string(eng.Now()));
    }
  });
  r.end = eng.Run();
  r.switches = eng.switch_count();
  return r;
}

TEST(SimEngineParity, ChurnWorkloadMatchesPinnedLegacy) {
  const ChurnResult r = RunChurnWorkload();
  ASSERT_EQ(r.trace.size(), 190u);
  std::string joined;
  for (const std::string& line : r.trace) joined += line + "\n";
  EXPECT_EQ(testutil::Fnv1a(joined), 0xb4be28314d1a3e1bull);
  EXPECT_EQ(r.end, 11665000);
  EXPECT_EQ(r.switches, 627u);
}

TEST(SimEngineParity, FastResumeEngagesWithoutChangingSwitchCount) {
  Engine eng;
  Chan<int> a(eng), b(eng);
  eng.Spawn("ping", [&] {
    for (int i = 0; i < 200; ++i) {
      a.Send(i, Microseconds(1));
      b.Recv();
    }
  });
  eng.Spawn("pong", [&] {
    for (int i = 0; i < 200; ++i) {
      a.Recv();
      b.Send(i, Microseconds(1));
    }
  });
  eng.Run();
  EXPECT_EQ(eng.switch_count(), 402u);  // the legacy scheduler's count
  EXPECT_GT(eng.fast_resume_count(), 0u);  // the hot path actually engages
}

// Regression for the MakeChan retention leak: the engine used to keep a
// shared_ptr to every channel ever created, so transient channels (one per
// RPC in reqrep) accumulated for the whole run. It now holds weak refs and
// prunes; after a churn soak the live count must return to baseline.
TEST(SimEngine, TransientChannelsDoNotAccumulate) {
  Engine eng;
  Chan<int> keep(eng);  // the one deliberately long-lived channel
  eng.Spawn("churn", [&] {
    for (int i = 0; i < 5000; ++i) {
      Chan<int> tmp(eng);
      tmp.Send(i);
      EXPECT_EQ(*tmp.Recv(), i);
    }
  });
  eng.Run();
  EXPECT_EQ(eng.live_chan_count(), 1u);
}

// Sums `n` tenths in the current rounding mode, switching out after each
// add when `eng` is given. Volatile operands keep the adds at run time, in
// program order around the switches.
double SumTenths(int n, Engine* eng) {
  volatile double tenth = 0.1;
  volatile double sum = 0;
  for (int i = 0; i < n; ++i) {
    sum = sum + tenth;
    if (eng != nullptr) eng->Delay(Microseconds(1));
  }
  return sum;
}

// Recurses `depth` frames of 1 KB of real stack each (alloca stays on the
// fiber's own stack even when a sanitizer moves locals elsewhere), switching
// out every 32 frames. Each frame checks its fill once the frames below it
// return; the result counts the intact ones. `deepest` receives the lowest
// fill address.
[[gnu::noinline]] int DeepFrames(Engine& eng, int depth,
                                 std::uintptr_t* deepest) {
  constexpr std::size_t kFrameBytes = 1024;
  auto* fill = static_cast<volatile unsigned char*>(
      __builtin_alloca(kFrameBytes));
  const auto mark = static_cast<unsigned char>(depth * 7);
  for (std::size_t i = 0; i < kFrameBytes; ++i) fill[i] = mark;
  *deepest = reinterpret_cast<std::uintptr_t>(fill);
  if (depth % 32 == 0) eng.Delay(Microseconds(1));
  const int below = depth > 1 ? DeepFrames(eng, depth - 1, deepest) : 0;
  for (std::size_t i = 0; i < kFrameBytes; ++i) {
    if (fill[i] != mark) return below;
  }
  return below + 1;
}

// A fiber switch must carry each fiber's FP control state and leave its
// stack untouched. The fibers yield in lockstep, so a Delay hands over to
// another ready fiber instead of fast-resuming.
TEST(SimEngine, FiberSwitchPreservesFpEnvAndStack) {
  constexpr int kAdds = 500;  // per fiber: 1,000 interleaved Delay switches
  std::fesetround(FE_UPWARD);
  const double up_ref = SumTenths(kAdds, nullptr);
  std::fesetround(FE_DOWNWARD);
  const double down_ref = SumTenths(kAdds, nullptr);
  std::fesetround(FE_TONEAREST);
  ASSERT_LT(down_ref, up_ref);

  Engine eng;
  double up_sum = 0;
  double down_sum = 0;
  bool up_mode_ok = false;
  bool down_mode_ok = false;
  eng.Spawn("up", [&] {
    std::fesetround(FE_UPWARD);
    up_sum = SumTenths(kAdds, &eng);
    up_mode_ok = std::fegetround() == FE_UPWARD;
  });
  eng.Spawn("down", [&] {
    std::fesetround(FE_DOWNWARD);
    down_sum = SumTenths(kAdds, &eng);
    down_mode_ok = std::fegetround() == FE_DOWNWARD;
  });

  // A fresh fiber's stack obeys the ABI's 16-byte alignment, which the
  // vector code in printf relies on.
  std::uintptr_t aligned_addr = 1;
  char printed[32] = {};
  eng.Spawn("fresh", [&] {
    alignas(16) char local[32];
    aligned_addr = reinterpret_cast<std::uintptr_t>(local);
    volatile double x = 2.71828;
    std::snprintf(local, sizeof(local), "%.3f", x);
    std::snprintf(printed, sizeof(printed), "%s", local);
  });

  // One fiber uses ~384 KB of its 512 KB stack while the other yields at
  // the same instants.
  constexpr int kDepth = 384;
  int intact = 0;
  std::uintptr_t top = 0;
  std::uintptr_t deepest = 0;
  eng.Spawn("deep", [&] {
    top = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
    intact = DeepFrames(eng, kDepth, &deepest);
  });
  eng.Spawn("yielder", [&] {
    for (int i = 0; i < kDepth / 32; ++i) eng.Delay(Microseconds(1));
  });
  eng.Run();

  EXPECT_EQ(std::fegetround(), FE_TONEAREST);  // the Run() thread's own mode
  EXPECT_TRUE(up_mode_ok);
  EXPECT_TRUE(down_mode_ok);
  EXPECT_EQ(up_sum, up_ref);
  EXPECT_EQ(down_sum, down_ref);
  EXPECT_EQ(aligned_addr % 16, 0u);
  EXPECT_STREQ(printed, "2.718");
  EXPECT_EQ(intact, kDepth);
  EXPECT_GE(top - deepest, kDepth * std::uintptr_t{1024} - 1024);
  EXPECT_GT(eng.switch_count() - eng.fast_resume_count(), 2u * kAdds);
}

TEST(RealTimeRuntime, ChannelAndDelayWork) {
  RealTimeRuntime rt(/*time_scale=*/1000.0);
  Chan<int> ch(rt);
  int got = 0;
  rt.Spawn("sender", [&] {
    rt.Delay(Milliseconds(50));  // 50 us wall time at scale 1000
    ch.Send(7);
  });
  rt.Spawn("receiver", [&] {
    auto v = ch.Recv();
    if (v) got = *v;
  });
  rt.Run();
  EXPECT_EQ(got, 7);
}

TEST(RealTimeRuntime, DaemonShutdownOnRun) {
  RealTimeRuntime rt(1000.0);
  Chan<int> ch(rt);
  Chan<int> ack(rt);
  std::atomic<int> served{0};
  std::atomic<bool> exited{false};
  rt.Spawn(
      "server",
      [&] {
        while (auto m = ch.Recv()) {
          served.fetch_add(*m);
          ack.Send(1);
        }
        exited = true;
      },
      /*daemon=*/true);
  rt.Spawn("client", [&] {
    ch.Send(3);
    ch.Send(4);
    // Wait for both to be served: shutdown may otherwise legally race the
    // daemon and discard queued messages.
    ack.Recv();
    ack.Recv();
  });
  rt.Run();
  EXPECT_TRUE(exited.load());
  EXPECT_EQ(served.load(), 7);
}

TEST(RealTimeRuntime, RecvTimeout) {
  RealTimeRuntime rt(1000.0);
  Chan<int> ch(rt);
  bool timed_out = false;
  rt.Spawn("receiver", [&] {
    auto v = ch.RecvUntil(rt.Now() + Milliseconds(30), &timed_out);
    EXPECT_FALSE(v.has_value());
  });
  rt.Run();
  EXPECT_TRUE(timed_out);
}

}  // namespace
}  // namespace mermaid::sim
