// Structured, causally-linked protocol event tracing.
//
// Mermaid's behaviour is dominated by protocol interleavings — fault ->
// manager grant -> forward -> owner serve -> install -> invalidate — that
// aggregate counters cannot localize. The Tracer records one fixed-size
// event per protocol step into a bounded ring buffer; each event carries
// the simulation time, the host it happened on, the page and operation ids,
// and the id of its *causal parent* event, so a complete fault-to-grant
// chain can be reconstructed after the run (see trace/export.h for the
// Chrome/Perfetto exporter and the per-page timeline).
//
// Causality across hosts: the simulation shares one address space, so a
// cross-host edge does not need to ride the wire. The producer of an event
// binds it under a causal key — (page, op_id) for a DSM transfer, the
// requester (host, page) pair for a fault awaiting its grant, the page for
// an in-flight invalidation round — and the consumer on the next protocol
// leg looks the key up to obtain its parent id. Keys are bound and read at
// the exact protocol points where the real system would carry a correlation
// id, so the reconstructed chains match the protocol's message pattern.
//
// Overhead: recording is gated on an atomic `enabled` flag; when tracing is
// off (the default) every hook is a pointer test plus a relaxed load, no
// lock, no allocation, and no simulated delay — modeled times are bit-for-bit
// identical with tracing on or off, because the Tracer never touches the
// runtime. When on, events go into a preallocated ring guarded by a leaf
// mutex; the capacity knob (SystemConfig::trace_capacity) bounds memory and
// the oldest events are evicted first.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "mermaid/base/time.h"

namespace mermaid::trace {

inline constexpr std::uint32_t kNoPage = 0xFFFFFFFFu;
inline constexpr std::uint16_t kNoHost = 0xFFFFu;

enum class EventKind : std::uint8_t {
  kProcSpawn = 0,        // a0 = daemon flag
  kFaultStart,           // a0 = write fault flag
  kFaultEnd,             // parent = matching kFaultStart
  kManagerGrant,         // a0 = write flag, a1 = owner host
  kManagerForward,       // a0 = owner forwarded to, a1 = requesting host
  kManagerCommit,        // a0 = write flag
  kManagerRevoke,
  kOwnerServe,           // a0 = extent bytes, a1 = conversion-cache hit flag
  kInstall,              // a0 = write flag, a1 = data-carried flag
  kInvalidateSend,       // a0 = fan-out (targets this round), a1 = round
  kInvalidateRecv,       // a0 = invalidating writer's host
  kConvert,              // a0 = elements converted, a1 = modeled delay ns
  kPacketSend,           // a0 = wire bytes, a1 = destination host
  kPacketDrop,           // a0 = wire bytes, a1 = destination host
  kMsgSend,              // op = msg id, a0 = fragment count, a1 = dst host
  kMsgDelivered,         // op = msg id, a0 = payload bytes
  kReassemblyExpired,    // op = msg id, a0 = fragments received
  kRetransmit,           // op = req id, a0 = attempt number
  kCallTimeout,          // op = req id
  kSyncOp,               // op = sync id, a0 = sub-operation
  // Crash-stop recovery (SystemConfig::crash_recovery; see DESIGN.md
  // "Failure model"). The whole recovery of one host forms a causal chain
  // rooted at its kRecoveryStart, linked through RecoveryKey.
  kRecoveryStart,        // a0 = new incarnation number
  kRecoveryQuery,        // a0 = live hosts queried, a1 = hosts that answered
  kRecoveryRebuild,      // page rebuilt; a0 = owner, a1 = version
  kRecoveryLost,         // page lost;   a0 = policy (0 fatal, 1 reinit-zero)
  kRecoveryDone,         // a0 = pages rebuilt, a1 = pages lost
  kRecoveryDemote,       // a0 = demoted host, a1 = kept owner
  kOwnerLost,            // requester saw an amnesiac owner; a0 = owner host
  // Release consistency (SystemConfig::release_consistency; see DESIGN.md
  // "Release consistency"). A full write-aggregation chain is
  // kTwinCreate -> kDiffFlush -> kWriteNotice, linked through RcTwinKey
  // (writer-local) and RcNoticeKey (cross-host).
  kTwinCreate,           // a0 = twin base version, a1 = home-dirty flag
  kDiffFlush,            // op = flush seq; a0 = diff bytes, a1 = range count
  kWriteNotice,          // a0 = noticed version, a1 = originating writer
};

const char* KindName(EventKind k);

// One traced protocol step. Fixed-size POD so the ring buffer never
// allocates per event.
struct Event {
  std::uint64_t id = 0;      // 1-based, monotonic across the whole run
  std::uint64_t parent = 0;  // causal parent event id; 0 = chain root
  SimTime at = 0;            // simulation time (ns)
  std::uint16_t host = kNoHost;
  EventKind kind = EventKind::kProcSpawn;
  std::uint32_t page = kNoPage;
  std::uint64_t op = 0;      // DSM op id / message id / request id / sync id
  std::int64_t a0 = 0;       // kind-specific detail (see EventKind)
  std::int64_t a1 = 0;
};

// Causal-key namespace tags (first pair element's high bits).
using CausalKey = std::pair<std::uint64_t, std::uint64_t>;

// A DSM transfer leg, keyed by the manager-assigned (page, op_id).
inline CausalKey OpKey(std::uint32_t page, std::uint64_t op) {
  return {(1ull << 32) | page, op};
}
// A fault awaiting its grant, keyed by (requesting host, page).
inline CausalKey FaultKey(std::uint16_t host, std::uint32_t page) {
  return {(2ull << 32) | page, host};
}
// The in-flight invalidation round for a page.
inline CausalKey InvKey(std::uint32_t page) {
  return {(3ull << 32) | page, 0};
}
// One host's in-flight crash recovery: kRecoveryStart binds here and every
// query/rebuild/lost/done event of that recovery links back through it.
inline CausalKey RecoveryKey(std::uint16_t host) {
  return {(5ull << 32), host};
}
// A live twin on one host (release consistency): kTwinCreate binds here and
// the twin's kDiffFlush at release links back through it.
inline CausalKey RcTwinKey(std::uint16_t host, std::uint32_t page) {
  return {(6ull << 32) | page, host};
}
// The latest flushed diff for a page: the releasing writer binds its
// kDiffFlush here and every acquirer's kWriteNotice links back through it.
inline CausalKey RcNoticeKey(std::uint32_t page) {
  return {(7ull << 32) | page, 0};
}

class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 1 << 16);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Records one event and returns its id, or 0 when disabled. Callers pass
  // the simulation time explicitly so the Tracer never has to reach into a
  // runtime (it must stay a leaf: Record is called under protocol locks).
  std::uint64_t Record(EventKind kind, std::uint16_t host, SimTime at,
                       std::uint32_t page = kNoPage, std::uint64_t op = 0,
                       std::uint64_t parent = 0, std::int64_t a0 = 0,
                       std::int64_t a1 = 0);

  // Publishes `event` as the latest event under `key`; the next protocol leg
  // (possibly on another host) reads it back with Parent. Bindings are kept
  // in a bounded FIFO map — a stale binding simply roots a new chain.
  void Bind(const CausalKey& key, std::uint64_t event);
  std::uint64_t Parent(const CausalKey& key) const;

  // Ring contents, oldest first. Events evicted by the ring are gone; see
  // dropped() for how many.
  std::vector<Event> Snapshot() const;

  std::uint64_t total_recorded() const;
  std::uint64_t dropped() const;
  std::size_t capacity() const { return capacity_; }
  void Clear();

 private:
  const std::size_t capacity_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
  std::deque<Event> ring_;
  std::map<CausalKey, std::uint64_t> bindings_;
  std::deque<CausalKey> binding_order_;
};

}  // namespace mermaid::trace
