// Request-response protocol with forwarding and multicast (§2.2).
//
// The paper rejected Sun/Firefly RPC (incompatible, no broadcast or
// forwarding, needless marshaling) and built a simple request-response
// protocol on datagrams. This is that protocol:
//
//   - Call       — blocking request; retransmits on timeout, exactly-once
//                  handler invocation via per-hop duplicate suppression.
//   - Forward    — a handler passes the request on (manager -> owner); the
//                  eventual reply goes *directly* to the original requester,
//                  giving Table 4's R -> M -> O -> R message pattern.
//   - MultiCall  — the multicast used for write invalidation: request to N
//                  hosts, block until every reply arrives.
//   - Notify     — one-way message (e.g. transfer confirmations).
//
// Handlers run inline in the endpoint's receive daemon and MUST NOT block
// (no Call/MultiCall); they may Delay to model processing cost, reply,
// forward, or stash the RequestContext to reply later (the DSM manager
// queues contexts per page). Clients call from ordinary processes.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mermaid/base/buffer.h"
#include "mermaid/base/rng.h"
#include "mermaid/base/stats.h"
#include "mermaid/net/fragment.h"
#include "mermaid/net/network.h"
#include "mermaid/sim/runtime.h"

namespace mermaid::net {

class Endpoint;

// An outgoing request/reply body: a small serialized protocol head plus an
// optional bulk data chain that is carried by reference all the way to the
// wire (never copied by the endpoint). Implicitly constructible from a
// plain byte vector so control-message call sites stay unchanged.
struct Body {
  std::vector<std::uint8_t> head;
  base::BufferChain data;

  Body() = default;
  Body(std::vector<std::uint8_t> h)  // NOLINT: implicit by design
      : head(std::move(h)) {}
  Body(std::span<const std::uint8_t> h)  // NOLINT: implicit by design
      : head(h.begin(), h.end()) {}
  Body(std::initializer_list<std::uint8_t> h) : head(h) {}
  Body(std::vector<std::uint8_t> h, base::BufferChain d)
      : head(std::move(h)), data(std::move(d)) {}

  std::size_t size() const { return head.size() + data.size(); }
};

// A received request, routable to its origin. Value type: handlers may keep
// it (e.g. in a per-page queue) and reply long after returning.
class RequestContext {
 public:
  HostId origin() const { return origin_; }
  std::uint8_t op() const { return op_; }
  std::span<const std::uint8_t> body() const { return body_.span(); }

  // The origin's incarnation number at the time it issued the request
  // (0 unless the endpoint carries incarnations).
  std::uint32_t origin_inc() const { return origin_inc_; }

  // Sends the reply to the original requester.
  void Reply(Body body, MsgKind kind = MsgKind::kControl) const;
  // Passes the request (with a new body) to another host; the reply duty
  // moves with it. May be called with next == the local host's id only via
  // the network loop, so DSM short-circuits local forwards itself.
  void Forward(HostId next, Body body) const;

 private:
  friend class Endpoint;
  Endpoint* ep_ = nullptr;
  HostId origin_ = 0;
  std::uint64_t req_id_ = 0;
  std::uint8_t op_ = 0;
  std::uint32_t origin_inc_ = 0;
  base::Buffer body_;
};

// Per-call overrides of an endpoint's timeout/retry configuration. A zero
// field means "use the endpoint default". Synchronization calls (a P on a
// taken semaphore blocks until the matching V) use a very long timeout; DSM
// transfers queued behind a thrashing page need one well beyond a single
// transfer time.
struct CallOpts {
  SimDuration timeout = 0;
  int max_attempts = 0;
};

// Why a Call/MultiCall came back without a full reply set. Callers must
// treat the two failure modes differently: kTimedOut means the peer is
// unreachable (retry with backoff, recover, or fail loudly); kShutdown means
// the engine is tearing down (unwind silently, never escalate).
enum class CallStatus : std::uint8_t { kOk = 0, kTimedOut = 1, kShutdown = 2 };

struct CallResult {
  CallStatus status = CallStatus::kShutdown;
  base::BufferChain body;  // valid iff status == kOk

  bool ok() const { return status == CallStatus::kOk; }
};

struct MultiCallResult {
  CallStatus status = CallStatus::kShutdown;
  // One entry per destination, in destination order. On kTimedOut the
  // entries whose indices appear in `timed_out` never replied (their bodies
  // are empty); the rest hold real replies, so a multicast caller can
  // retry just the missing targets.
  std::vector<base::BufferChain> replies;
  std::vector<std::size_t> timed_out;

  bool ok() const { return status == CallStatus::kOk; }
};

class Endpoint {
 public:
  using CallOpts = net::CallOpts;

  struct Config {
    SimDuration call_timeout = Milliseconds(400);
    int max_attempts = 6;       // first send + retransmissions
    std::size_t dedup_window = 512;  // remembered (origin, req_id) entries
    // Retransmission backoff: attempt k waits min(timeout * factor^(k-1),
    // backoff_cap), stretched by a seeded jitter of up to +/- backoff_jitter
    // so synchronized losers don't retransmit in lockstep. factor = 1
    // restores the legacy fixed re-arm.
    double backoff_factor = 2.0;
    SimDuration backoff_cap = Seconds(4);
    double backoff_jitter = 0.2;
    std::uint64_t backoff_seed = 0x6d657277616964ULL;  // per-host salt added
    // Crash-stop fencing: when true, every request carries the origin's
    // incarnation number (+4 wire bytes) and every reply the sender's
    // (+4 bytes); traffic stamped with an incarnation older than the
    // receiver's latest knowledge of that peer is dropped and counted
    // (reqrep.fenced_stale_inc). Default off so the knobs-off wire format
    // and modeled byte counts are unchanged.
    bool carry_incarnation = false;
  };

  // Attaches `self` to the network with the given architecture profile.
  Endpoint(sim::Runtime& rt, Network& net, HostId self,
           const arch::ArchProfile* profile, Config cfg);
  Endpoint(sim::Runtime& rt, Network& net, HostId self,
           const arch::ArchProfile* profile)
      : Endpoint(rt, net, self, profile, Config{}) {}

  // Registers the handler for requests and notifies with opcode `op`.
  void SetHandler(std::uint8_t op,
                  std::function<void(RequestContext)> handler);

  // Spawns the receive daemon. Call after handlers are registered.
  void Start();

  // Blocking request with a typed outcome; retransmits with exponential
  // backoff until a reply arrives or max_attempts is exhausted.
  CallResult CallWithStatus(HostId dst, std::uint8_t op, Body body,
                            MsgKind kind = MsgKind::kControl,
                            const CallOpts& opts = {});

  // Blocking multicast with a typed outcome: one request per destination,
  // waits for all replies; on timeout, reports which destinations failed and
  // keeps the partial replies.
  MultiCallResult MultiCallWithStatus(const std::vector<HostId>& dsts,
                                      std::uint8_t op, Body body,
                                      MsgKind kind = MsgKind::kControl,
                                      const CallOpts& opts = {});

  // One-way message; at-most-once, no retransmission.
  void Notify(HostId dst, std::uint8_t op, Body body,
              MsgKind kind = MsgKind::kControl);

  // Crash-with-amnesia: bumps this endpoint's incarnation number, abandons
  // every outstanding Call (their zombie processes time out and observe
  // kTimedOut; counted as reqrep.fenced_zombie_calls), and drops the dedup
  // table and all partial reassemblies — none of the previous life's
  // protocol state survives. The next_req_id_ counter is deliberately NOT
  // reset so new calls can never collide with stale replies to old ids.
  void CrashReset();

  // This endpoint's current incarnation number (0 until the first crash).
  std::uint32_t incarnation() const;
  // Latest incarnation observed from `peer` (via its requests and replies);
  // 0 until any incarnation-stamped traffic from the peer arrives.
  std::uint32_t PeerIncarnation(HostId peer) const;

  HostId self() const { return self_; }
  sim::Runtime& runtime() { return rt_; }
  base::StatsRegistry& stats() { return stats_; }

  // The reassembler keeps its own registry (frag.* / net.* counters);
  // exposed so System::GatherStats can fold it into the per-run totals.
  base::StatsRegistry& frag_stats() { return reassembler_.stats(); }
  // Live partial-reassembly count, for leak regression tests.
  std::size_t reassembly_partials() const {
    return reassembler_.partial_count();
  }

  void SetTracer(trace::Tracer* tracer) {
    tracer_ = tracer;
    fragmenter_.SetTracer(tracer);
    reassembler_.SetTracer(tracer, self_);
  }

  // Installs a message-class namer (opcode -> short name). When set, every
  // transmitted request/notify/reply is counted per class as
  // reqrep.tx_msgs.<name> / reqrep.tx_bytes.<name>, so protocols can prove
  // hop and wire-byte reductions per message kind. Call before Start.
  void SetOpNamer(const char* (*namer)(std::uint8_t)) { op_namer_ = namer; }

 private:
  friend class RequestContext;

  enum class WireType : std::uint8_t { kRequest = 1, kReply = 2, kNotify = 3 };

  struct ReplyMsg {
    std::uint64_t req_id;
    base::BufferChain body;
  };

  using DedupKey = std::pair<HostId, std::uint64_t>;  // (origin, req_id)
  struct DedupKeyHash {
    std::size_t operator()(const DedupKey& k) const {
      return std::hash<std::uint64_t>{}(k.second * 0x10001u ^ k.first);
    }
  };

  // The stat keys CountTxClass bumps for one opcode.
  struct TxClassKeys {
    base::StatKey msgs;
    base::StatKey bytes;
  };

  // Duplicate-suppression record for one (origin, req_id).
  struct DedupEntry {
    enum class State { kPending, kReplied, kForwarded } state =
        State::kPending;
    // kReplied: cached reply for replay. kForwarded: body + next hop.
    // Bulk data in a saved body is a shared view, not a copy.
    Body saved_body;
    MsgKind saved_kind = MsgKind::kControl;
    HostId forwarded_to = 0;
  };

  void RxLoop();
  void DispatchRequest(Message msg);
  void SendRequestWire(WireType type, HostId dst, std::uint8_t op,
                       HostId origin, std::uint64_t req_id,
                       std::uint32_t origin_inc, const Body& body,
                       MsgKind kind);
  void SendReplyWire(HostId dst, std::uint8_t op, std::uint64_t req_id,
                     const Body& body, MsgKind kind);
  // Framing sizes depend on whether incarnations are carried.
  std::size_t RequestFramingBytes() const;
  std::size_t ReplyFramingBytes() const;
  // Records `inc` as peer's latest incarnation; returns true when `inc` is
  // older than what we already know (the message must be fenced). A newer
  // incarnation purges the peer's dedup entries (its new life restarts
  // req-id-independent state). Caller must hold maps_mu_.
  bool FencePeerIncLocked(HostId peer, std::uint32_t inc);
  // Per-message-class transmit accounting (no-op name fallback "op<N>"
  // when no namer is installed). `wire_bytes` is the full payload size
  // including the request/reply framing.
  void CountTxClass(std::uint8_t op, std::size_t wire_bytes);
  DedupEntry* DedupFind(HostId origin, std::uint64_t req_id);
  // Records (origin, req_id) as a pending request, in one lookup; returns
  // the existing entry instead if the pair is already recorded.
  DedupEntry* DedupClaim(HostId origin, std::uint64_t req_id);

  sim::Runtime& rt_;
  Network& net_;
  HostId self_;
  Config cfg_;
  Fragmenter fragmenter_;
  Reassembler reassembler_;
  sim::Chan<Packet> rx_;
  std::array<std::function<void(RequestContext)>, 256> handlers_;  // by op
  // Guards the maps below for the real-time runtime, where client processes
  // and the rx daemon genuinely run concurrently. Never held across a
  // blocking operation (Delay/Recv) — under the virtual-time engine an OS
  // mutex held across a process switch would wedge the scheduler.
  mutable std::mutex maps_mu_;
  std::uint64_t next_req_id_ = 1;
  // Crash-stop fencing state (only used when cfg_.carry_incarnation).
  std::uint32_t incarnation_ = 0;
  std::map<HostId, std::uint32_t> peer_inc_;
  base::Rng backoff_rng_;  // jitter source; guarded by maps_mu_
  // Outstanding Calls/MultiCalls: req_id -> the caller's reply channel.
  std::unordered_map<std::uint64_t, sim::Chan<ReplyMsg>> pending_;
  // Dedup table with FIFO eviction (rx daemon only, but kept under the same
  // lock for simplicity). Hashed: nothing depends on its order.
  std::unordered_map<DedupKey, DedupEntry, DedupKeyHash> dedup_;
  std::deque<DedupKey> dedup_order_;
  // CountTxClass's keys by opcode, resolved on the opcode's first send.
  std::array<std::optional<TxClassKeys>, 256> tx_keys_;
  base::StatsRegistry stats_;
  trace::Tracer* tracer_ = nullptr;
  const char* (*op_namer_)(std::uint8_t) = nullptr;
  bool started_ = false;
};

}  // namespace mermaid::net
