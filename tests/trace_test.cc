// Trace layer: ring-buffer semantics, causal bindings, exporter output, and
// a protocol litmus — replay a traced read fault through the R -> M -> O
// forwarding path and a write-invalidate round, and check the reconstructed
// causal chain matches the protocol's message pattern.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mermaid/arch/arch.h"
#include "mermaid/dsm/system.h"
#include "mermaid/sim/engine.h"
#include "mermaid/trace/export.h"
#include "mermaid/trace/trace.h"

namespace mermaid::trace {
namespace {

TEST(Tracer, AssignsMonotonicIdsAndKeepsOrder) {
  Tracer t(16);
  t.Enable(true);
  const std::uint64_t a = t.Record(EventKind::kFaultStart, 0, 100, 7);
  const std::uint64_t b = t.Record(EventKind::kFaultEnd, 0, 200, 7, 0, a);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  const auto evs = t.Snapshot();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].id, a);
  EXPECT_EQ(evs[0].kind, EventKind::kFaultStart);
  EXPECT_EQ(evs[0].at, 100);
  EXPECT_EQ(evs[0].page, 7u);
  EXPECT_EQ(evs[1].parent, a);
  EXPECT_EQ(t.total_recorded(), 2u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, RingEvictsOldestWhenFull) {
  Tracer t(4);
  t.Enable(true);
  for (int i = 0; i < 6; ++i) {
    t.Record(EventKind::kPacketSend, 0, i);
  }
  const auto evs = t.Snapshot();
  ASSERT_EQ(evs.size(), 4u);
  // Events 1 and 2 were evicted; 3..6 remain, oldest first.
  EXPECT_EQ(evs.front().id, 3u);
  EXPECT_EQ(evs.back().id, 6u);
  EXPECT_EQ(t.total_recorded(), 6u);
  EXPECT_EQ(t.dropped(), 2u);
}

TEST(Tracer, DisabledRecordingIsANoOp) {
  Tracer t(16);
  EXPECT_FALSE(t.enabled());
  EXPECT_EQ(t.Record(EventKind::kFaultStart, 0, 1, 1), 0u);
  EXPECT_TRUE(t.Snapshot().empty());
  EXPECT_EQ(t.total_recorded(), 0u);
}

TEST(Tracer, BindPublishesParentAndRebindMovesChainForward) {
  Tracer t(16);
  t.Enable(true);
  EXPECT_EQ(t.Parent(OpKey(3, 9)), 0u);  // unknown key roots a new chain
  t.Bind(OpKey(3, 9), 41);
  EXPECT_EQ(t.Parent(OpKey(3, 9)), 41u);
  t.Bind(OpKey(3, 9), 42);  // next protocol leg rebinds
  EXPECT_EQ(t.Parent(OpKey(3, 9)), 42u);
  // Key namespaces don't collide: same page, different tag.
  t.Bind(InvKey(3), 7);
  EXPECT_EQ(t.Parent(OpKey(3, 9)), 42u);
  EXPECT_EQ(t.Parent(InvKey(3)), 7u);
}

TEST(Tracer, ClearDropsEventsAndBindings) {
  Tracer t(16);
  t.Enable(true);
  t.Record(EventKind::kInstall, 1, 5, 2);
  t.Bind(OpKey(2, 1), 1);
  t.Clear();
  EXPECT_TRUE(t.Snapshot().empty());
  EXPECT_EQ(t.total_recorded(), 0u);
  EXPECT_EQ(t.Parent(OpKey(2, 1)), 0u);
  EXPECT_TRUE(t.enabled());  // Clear keeps the enable state
}

// Minimal structural JSON check: braces/brackets balance outside strings,
// escapes honored. Enough to catch any malformed exporter output.
bool JsonBalanced(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': stack.push_back(c); break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

struct LitmusRun {
  std::vector<Event> events;
  SimTime end_time = 0;
  std::uint64_t recorded = 0;
};

// Three same-type hosts; page 1 is managed by host 1. Host 2 takes write
// ownership, host 0 read-faults (R -> M -> O with a forward), then host 2
// re-writes, invalidating host 0's copy.
LitmusRun RunLitmus(bool trace_on) {
  sim::Engine eng;
  dsm::SystemConfig cfg;
  cfg.region_bytes = 1u << 20;
  cfg.page_bytes_override = 8192;
  cfg.trace = trace_on;
  std::vector<const arch::ArchProfile*> hosts{&arch::Sun3Profile(),
                                              &arch::Sun3Profile(),
                                              &arch::Sun3Profile()};
  dsm::System sys(eng, cfg, hosts);
  sys.Start();
  const dsm::PageNum target = 1;
  const dsm::GlobalAddr page_b = 8192;

  sys.SpawnThread(2, "owner", [&](dsm::Host& h) {
    dsm::GlobalAddr a = sys.Alloc(h.id(), arch::TypeRegistry::kInt, 4096);
    std::vector<std::int32_t> fill(2048, 3);
    h.WriteBlock<std::int32_t>(a + target * page_b, fill.data(), fill.size());
    sys.sync(h.id()).V(1);
    sys.sync(h.id()).P(2);
    // Second write: host 0 holds a read copy now, so this upgrade must
    // invalidate it.
    h.WriteBlock<std::int32_t>(a + target * page_b, fill.data(), fill.size());
  });
  sys.SpawnThread(0, "reader", [&](dsm::Host& h) {
    sys.sync(0).SemInit(1, 0);
    sys.sync(0).SemInit(2, 0);
    sys.sync(0).P(1);
    h.Touch(target * page_b, dsm::Access::kRead);
    sys.sync(0).V(2);
  });
  eng.Run();
  return LitmusRun{sys.tracer().Snapshot(), eng.Now(),
                   sys.tracer().total_recorded()};
}

const Event* FindLast(const std::vector<Event>& evs, EventKind kind,
                      std::uint16_t host, std::uint32_t page) {
  const Event* found = nullptr;
  for (const Event& ev : evs) {
    if (ev.kind == kind && ev.host == host && ev.page == page) found = &ev;
  }
  return found;
}

TEST(TraceLitmus, ReconstructsFaultForwardServeGrantChain) {
  const LitmusRun run = RunLitmus(/*trace_on=*/true);
  ASSERT_FALSE(run.events.empty());
  std::map<std::uint64_t, const Event*> by_id;
  for (const Event& ev : run.events) by_id[ev.id] = &ev;

  // Host 0's read fault installed page 1; walk its causal chain backwards.
  const Event* install = FindLast(run.events, EventKind::kInstall, 0, 1);
  ASSERT_NE(install, nullptr);
  EXPECT_EQ(install->a0, 0) << "read install, not write";

  ASSERT_NE(install->parent, 0u);
  const Event* serve = by_id.at(install->parent);
  EXPECT_EQ(serve->kind, EventKind::kOwnerServe);
  EXPECT_EQ(serve->host, 2) << "host 2 owned the page";
  EXPECT_EQ(serve->op, install->op);

  ASSERT_NE(serve->parent, 0u);
  const Event* forward = by_id.at(serve->parent);
  EXPECT_EQ(forward->kind, EventKind::kManagerForward);
  EXPECT_EQ(forward->host, 1) << "host 1 manages page 1";
  EXPECT_EQ(forward->a0, 2) << "forwarded to the owner, host 2";

  ASSERT_NE(forward->parent, 0u);
  const Event* grant = by_id.at(forward->parent);
  EXPECT_EQ(grant->kind, EventKind::kManagerGrant);
  EXPECT_EQ(grant->host, 1);
  EXPECT_EQ(grant->op, install->op) << "one op id spans the whole transfer";

  ASSERT_NE(grant->parent, 0u);
  const Event* fault = by_id.at(grant->parent);
  EXPECT_EQ(fault->kind, EventKind::kFaultStart);
  EXPECT_EQ(fault->host, 0);
  EXPECT_EQ(fault->page, 1u);

  // Sim-time must be monotone along the chain.
  EXPECT_LE(fault->at, grant->at);
  EXPECT_LE(grant->at, forward->at);
  EXPECT_LE(forward->at, serve->at);
  EXPECT_LE(serve->at, install->at);

  // The fault also closed: its kFaultEnd points back at the start event.
  const Event* fault_end = FindLast(run.events, EventKind::kFaultEnd, 0, 1);
  ASSERT_NE(fault_end, nullptr);
  EXPECT_EQ(fault_end->parent, fault->id);

  // And the manager committed the same op after the install.
  const Event* commit = FindLast(run.events, EventKind::kManagerCommit, 1, 1);
  ASSERT_NE(commit, nullptr);
  EXPECT_GE(commit->at, install->at);
}

TEST(TraceLitmus, WriteInvalidateRoundLinksSendToReceive) {
  const LitmusRun run = RunLitmus(/*trace_on=*/true);
  std::map<std::uint64_t, const Event*> by_id;
  for (const Event& ev : run.events) by_id[ev.id] = &ev;

  // Host 2's second write invalidated host 0's read copy.
  const Event* recv = FindLast(run.events, EventKind::kInvalidateRecv, 0, 1);
  ASSERT_NE(recv, nullptr);
  ASSERT_NE(recv->parent, 0u);
  const Event* send = by_id.at(recv->parent);
  EXPECT_EQ(send->kind, EventKind::kInvalidateSend);
  EXPECT_EQ(send->host, 2) << "the upgrading writer multicasts";
  EXPECT_EQ(send->page, 1u);
  EXPECT_EQ(send->a0, 1) << "fan-out of one: only host 0 held a copy";
  EXPECT_LE(send->at, recv->at);

  // The invalidation hangs off the writer's install of the same op.
  ASSERT_NE(send->parent, 0u);
  const Event* install = by_id.at(send->parent);
  EXPECT_EQ(install->kind, EventKind::kInstall);
  EXPECT_EQ(install->host, 2);
  EXPECT_EQ(install->a0, 1) << "write install";
}

TEST(TraceLitmus, TracingDoesNotPerturbModeledTime) {
  const LitmusRun off = RunLitmus(/*trace_on=*/false);
  const LitmusRun on = RunLitmus(/*trace_on=*/true);
  EXPECT_EQ(off.recorded, 0u);
  EXPECT_TRUE(off.events.empty());
  EXPECT_GT(on.recorded, 0u);
  EXPECT_EQ(off.end_time, on.end_time)
      << "virtual end time must be bit-identical with tracing on or off";
}

TEST(TraceExport, ChromeTraceIsStructurallyValidJson) {
  const LitmusRun run = RunLitmus(/*trace_on=*/true);
  const std::string json = ChromeTraceJson(run.events);
  EXPECT_TRUE(JsonBalanced(json)) << json.substr(0, 200);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Fault start/end pairs render as duration slices.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"Fault p1\""), std::string::npos);
  // Instants carry the causal parent in args.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\":"), std::string::npos);
}

TEST(TraceExport, PageTimelineGroupsEventsByPageInTimeOrder) {
  const LitmusRun run = RunLitmus(/*trace_on=*/true);
  const std::string json = PageTimelineJson(run.events);
  EXPECT_TRUE(JsonBalanced(json));
  EXPECT_NE(json.find("\"pages\":{"), std::string::npos);

  const auto pages = PageTimeline(run.events);
  ASSERT_TRUE(pages.count(1));
  SimTime prev = 0;
  for (const Event& ev : pages.at(1)) {
    EXPECT_EQ(ev.page, 1u);
    EXPECT_GE(ev.at, prev);
    prev = ev.at;
  }
  // Packet-level events carry no page and must not appear in any timeline.
  for (const auto& [page, evs] : pages) {
    for (const Event& ev : evs) {
      EXPECT_NE(ev.kind, EventKind::kPacketSend);
      EXPECT_NE(ev.page, kNoPage);
    }
  }
}

}  // namespace
}  // namespace mermaid::trace
