#include "mermaid/net/reqrep.h"

#include <algorithm>

#include "mermaid/base/check.h"
#include "mermaid/base/wire.h"

namespace mermaid::net {

namespace {

// Stat keys of the request-response path, resolved once (see
// base::StatKey).
const base::StatKey kBackoffTotalMs("reqrep.backoff_total_ms");
const base::StatKey kCallFailures("reqrep.call_failures");
const base::StatKey kCallTimeouts("reqrep.call_timeouts");
const base::StatKey kDedupPurgedReincarnation(
    "reqrep.dedup_purged_reincarnation");
const base::StatKey kDuplicates("reqrep.duplicates");
const base::StatKey kFencedStaleInc("reqrep.fenced_stale_inc");
const base::StatKey kFencedZombieCalls("reqrep.fenced_zombie_calls");
const base::StatKey kForwards("reqrep.forwards");
const base::StatKey kMalformed("reqrep.malformed");
const base::StatKey kNotifiesHandled("reqrep.notifies_handled");
const base::StatKey kNotifiesSent("reqrep.notifies_sent");
const base::StatKey kOrphanReplies("reqrep.orphan_replies");
const base::StatKey kRepliesSent("reqrep.replies_sent");
const base::StatKey kRequestsHandled("reqrep.requests_handled");
const base::StatKey kRequestsSent("reqrep.requests_sent");
const base::StatKey kRetransmits("reqrep.retransmits");
const base::StatKey kRttMs("reqrep.rtt_ms");
const base::StatKey kUnhandledOps("reqrep.unhandled_ops");

}  // namespace

// Request/notify wire layout within a Message payload:
//   u8 type | u64 req_id | u16 origin | u8 op | [u32 origin_inc] | body...
// Reply layout:
//   u8 type | u64 req_id | [u32 sender_inc] | body...
// The bracketed incarnation stamps exist only when
// Config::carry_incarnation is set (crash-stop recovery); the default wire
// format is byte-identical to the pre-recovery protocol.

void RequestContext::Reply(Body body, MsgKind kind) const {
  MERMAID_CHECK(ep_ != nullptr);
  {
    std::lock_guard<std::mutex> lk(ep_->maps_mu_);
    if (auto* entry = ep_->DedupFind(origin_, req_id_)) {
      entry->state = Endpoint::DedupEntry::State::kReplied;
      entry->saved_body = body;  // bulk data saved as a shared view
      entry->saved_kind = kind;
    }
    ep_->stats_.Inc(kRepliesSent);
  }
  ep_->SendReplyWire(origin_, op_, req_id_, body, kind);
}

void RequestContext::Forward(HostId next, Body body) const {
  MERMAID_CHECK(ep_ != nullptr);
  {
    std::lock_guard<std::mutex> lk(ep_->maps_mu_);
    if (auto* entry = ep_->DedupFind(origin_, req_id_)) {
      entry->state = Endpoint::DedupEntry::State::kForwarded;
      entry->saved_body = body;
      entry->forwarded_to = next;
    }
    ep_->stats_.Inc(kForwards);
  }
  // Forwards keep the *origin's* incarnation stamp: the downstream handler
  // and dedup table must fence on the requester's life, not the forwarder's.
  ep_->SendRequestWire(Endpoint::WireType::kRequest, next, op_, origin_,
                       req_id_, origin_inc_, body, MsgKind::kControl);
}

Endpoint::Endpoint(sim::Runtime& rt, Network& net, HostId self,
                   const arch::ArchProfile* profile, Config cfg)
    : rt_(rt),
      net_(net),
      self_(self),
      cfg_(cfg),
      fragmenter_(rt, net, self),
      reassembler_(rt),
      rx_(net.Attach(self, profile)),
      backoff_rng_(cfg.backoff_seed + 0x9e3779b97f4a7c15ULL * (self + 1)) {
  // Room for the few hundred requests most endpoints ever see, so the
  // request path does not rehash a growing table.
  dedup_.reserve(128);
}

void Endpoint::SetHandler(std::uint8_t op,
                          std::function<void(RequestContext)> handler) {
  MERMAID_CHECK(!started_);
  handlers_[op] = std::move(handler);
}

void Endpoint::Start() {
  MERMAID_CHECK(!started_);
  started_ = true;
  // Crash hygiene: when the network crashes this host, its half-reassembled
  // messages die with it immediately instead of lingering until the TTL
  // sweeper ages them out.
  net_.SetCrashHook(self_, [this] { reassembler_.PurgeAll(); });
  rt_.Spawn("reqrep-rx-" + std::to_string(self_), [this] { RxLoop(); },
            /*daemon=*/true);
  // Stale-reassembly sweeper. OnPacket purges expired partials only when a
  // packet arrives; a host that stops receiving (partitioned, or the sender
  // gave up after its tail fragments were dropped) would otherwise hold its
  // partially reassembled messages — and their page-sized buffers — forever.
  rt_.Spawn(
      "frag-sweep-" + std::to_string(self_),
      [this] {
        sim::Chan<int> never(rt_);
        const SimDuration period =
            std::max<SimDuration>(1, reassembler_.stale_after() / 2);
        for (;;) {
          bool timed_out = false;
          never.RecvUntil(rt_.Now() + period, &timed_out);
          if (!timed_out) return;  // shutdown
          reassembler_.SweepStale();
        }
      },
      /*daemon=*/true);
}

namespace {

// Request framing: u8 type | u64 req_id | u16 origin | u8 op.
constexpr std::size_t kRequestFramingBytes = 12;
// Reply framing: u8 type | u64 req_id.
constexpr std::size_t kReplyFramingBytes = 9;
// Incarnation stamp appended to both layouts when carried.
constexpr std::size_t kIncarnationBytes = 4;

// Contiguous view of a message's protocol framing (at least `framing_bytes`
// of it). The sender serializes framing and protocol head into one chunk,
// so this is the first chunk in practice; flatten only in degenerate
// tiny-chunk cases.
base::Buffer FramingView(const base::BufferChain& payload,
                         std::size_t framing_bytes) {
  if (payload.chunk_count() == 0) return base::Buffer();
  base::Buffer head = payload.chunk(0);
  if (head.size() < framing_bytes && head.size() < payload.size()) {
    return payload.Flatten();
  }
  return head;
}

}  // namespace

std::size_t Endpoint::RequestFramingBytes() const {
  return kRequestFramingBytes +
         (cfg_.carry_incarnation ? kIncarnationBytes : 0);
}

std::size_t Endpoint::ReplyFramingBytes() const {
  return kReplyFramingBytes +
         (cfg_.carry_incarnation ? kIncarnationBytes : 0);
}

std::uint32_t Endpoint::incarnation() const {
  std::lock_guard<std::mutex> lk(maps_mu_);
  return incarnation_;
}

std::uint32_t Endpoint::PeerIncarnation(HostId peer) const {
  std::lock_guard<std::mutex> lk(maps_mu_);
  auto it = peer_inc_.find(peer);
  return it == peer_inc_.end() ? 0 : it->second;
}

bool Endpoint::FencePeerIncLocked(HostId peer, std::uint32_t inc) {
  std::uint32_t& known = peer_inc_[peer];
  if (inc < known) {
    stats_.Inc(kFencedStaleInc);
    return true;
  }
  if (inc > known) {
    known = inc;
    // The peer's previous life's dedup entries describe requests that its
    // new life has no memory of issuing; replaying their cached replies to
    // the reincarnated peer would resurrect pre-crash protocol state.
    std::size_t purged = 0;
    for (auto it = dedup_.begin(); it != dedup_.end();) {
      if (it->first.first == peer) {
        it = dedup_.erase(it);
        ++purged;
      } else {
        ++it;
      }
    }
    if (purged > 0) {
      for (auto it = dedup_order_.begin(); it != dedup_order_.end();) {
        if (it->first == peer) {
          it = dedup_order_.erase(it);
        } else {
          ++it;
        }
      }
      stats_.Inc(kDedupPurgedReincarnation, static_cast<std::int64_t>(purged));
    }
  }
  return false;
}

void Endpoint::CrashReset() {
  std::size_t zombies = 0;
  {
    std::lock_guard<std::mutex> lk(maps_mu_);
    ++incarnation_;
    zombies = pending_.size();
    // Abandon outstanding Calls: their processes survive (sim threads
    // cannot be killed) but their reply channels are forgotten, so any
    // late reply is counted as an orphan and the zombie call times out.
    pending_.clear();
    dedup_.clear();
    dedup_order_.clear();
  }
  if (zombies > 0) {
    stats_.Inc(kFencedZombieCalls, static_cast<std::int64_t>(zombies));
  }
  reassembler_.PurgeAll();
}

void Endpoint::RxLoop() {
  while (auto pkt = rx_.Recv()) {
    auto msg = reassembler_.OnPacket(std::move(*pkt));
    if (!msg.has_value()) continue;
    base::Buffer head = FramingView(msg->payload, RequestFramingBytes());
    base::WireReader r(head.span());
    const auto type = static_cast<WireType>(r.U8());
    switch (type) {
      case WireType::kRequest:
      case WireType::kNotify:
        DispatchRequest(std::move(*msg));
        break;
      case WireType::kReply: {
        const std::uint64_t req_id = r.U64();
        if (!r.ok()) {
          stats_.Inc(kMalformed);
          break;
        }
        sim::Chan<ReplyMsg> target;
        bool have_target = false;
        {
          std::lock_guard<std::mutex> lk(maps_mu_);
          bool dropped = false;
          if (cfg_.carry_incarnation) {
            // A reply stamped with a pre-crash incarnation of the sender
            // describes state from its previous life — fence it before it
            // can resolve a live call.
            base::WireReader rr(head.span());
            rr.U8();
            rr.U64();
            const std::uint32_t sender_inc = rr.U32();
            if (!rr.ok()) {
              stats_.Inc(kMalformed);
              dropped = true;
            } else if (FencePeerIncLocked(msg->src, sender_inc)) {
              dropped = true;
            }
          }
          if (!dropped) {
            auto it = pending_.find(req_id);
            if (it == pending_.end()) {
              stats_.Inc(kOrphanReplies);  // caller gave up already
            } else {
              target = it->second;
              have_target = true;
            }
          }
        }
        if (!have_target) break;
        ReplyMsg reply;
        reply.req_id = req_id;
        reply.body = msg->payload.Slice(ReplyFramingBytes());
        target.Send(std::move(reply));
        break;
      }
      default:
        stats_.Inc(kMalformed);
        break;
    }
  }
}

void Endpoint::DispatchRequest(Message msg) {
  base::Buffer framing = FramingView(msg.payload, RequestFramingBytes());
  base::WireReader r(framing.span());
  const auto type = static_cast<WireType>(r.U8());
  const std::uint64_t req_id = r.U64();
  const HostId origin = r.U16();
  const std::uint8_t op = r.U8();
  std::uint32_t origin_inc = 0;
  if (cfg_.carry_incarnation) origin_inc = r.U32();
  // The origin is where the reply (or a forward's eventual reply) goes; an
  // id no host is attached under cannot be answered, so the request is
  // garbage from the wire.
  if (!r.ok() || !net_.Attached(origin)) {
    stats_.Inc(kMalformed);
    return;
  }
  if (cfg_.carry_incarnation) {
    std::lock_guard<std::mutex> lk(maps_mu_);
    // Requests from a previous life of the origin (zombie retransmissions,
    // packets delayed across its crash) must not reach handlers: the new
    // life has no record of them and their effects would be stale.
    if (FencePeerIncLocked(origin, origin_inc)) return;
  }

  if (type == WireType::kRequest) {
    // Duplicate suppression. If this (origin, req_id) was seen, replay the
    // recorded action instead of re-invoking the handler: requests are
    // applied exactly once per hop even under loss and retransmission.
    DedupEntry replay;
    bool is_dup = false;
    {
      std::lock_guard<std::mutex> lk(maps_mu_);
      if (const DedupEntry* entry = DedupClaim(origin, req_id)) {
        is_dup = true;
        replay = *entry;
        stats_.Inc(kDuplicates);
      }
    }
    if (is_dup) {
      switch (replay.state) {
        case DedupEntry::State::kPending:
          break;  // still being handled; the reply will come
        case DedupEntry::State::kReplied:
          SendReplyWire(origin, op, req_id, replay.saved_body,
                        replay.saved_kind);
          break;
        case DedupEntry::State::kForwarded:
          // Re-forward; the downstream dedup table replays its reply.
          SendRequestWire(WireType::kRequest, replay.forwarded_to, op, origin,
                          req_id, origin_inc, replay.saved_body,
                          MsgKind::kControl);
          break;
      }
      return;
    }
  }

  const auto& handler = handlers_[op];
  if (!handler) {
    stats_.Inc(kUnhandledOps);
    return;
  }
  RequestContext ctx;
  ctx.ep_ = this;
  ctx.origin_ = origin;
  ctx.req_id_ = req_id;
  ctx.op_ = op;
  ctx.origin_inc_ = origin_inc;
  ctx.body_ = msg.payload.Slice(RequestFramingBytes()).Flatten();
  stats_.Inc(type == WireType::kRequest ? kRequestsHandled : kNotifiesHandled);
  handler(std::move(ctx));
}

void Endpoint::SendRequestWire(WireType type, HostId dst, std::uint8_t op,
                               HostId origin, std::uint64_t req_id,
                               std::uint32_t origin_inc, const Body& body,
                               MsgKind kind) {
  base::WireWriter w;
  w.U8(static_cast<std::uint8_t>(type));
  w.U64(req_id);
  w.U16(origin);
  w.U8(op);
  if (cfg_.carry_incarnation) w.U32(origin_inc);
  w.Raw(body.head);
  Message m;
  m.src = self_;
  m.dst = dst;
  m.kind = kind;
  m.payload = std::move(w).Take();
  m.payload.Append(body.data);  // bulk data: shared views, no copy
  CountTxClass(op, m.payload.size());
  fragmenter_.Send(std::move(m));
}

void Endpoint::SendReplyWire(HostId dst, std::uint8_t op,
                             std::uint64_t req_id, const Body& body,
                             MsgKind kind) {
  base::WireWriter w;
  w.U8(static_cast<std::uint8_t>(WireType::kReply));
  w.U64(req_id);
  if (cfg_.carry_incarnation) {
    std::lock_guard<std::mutex> lk(maps_mu_);
    w.U32(incarnation_);
  }
  w.Raw(body.head);
  Message m;
  m.src = self_;
  m.dst = dst;
  m.kind = kind;
  m.payload = std::move(w).Take();
  m.payload.Append(body.data);
  CountTxClass(op, m.payload.size());
  fragmenter_.Send(std::move(m));
}

void Endpoint::CountTxClass(std::uint8_t op, std::size_t wire_bytes) {
  const TxClassKeys keys = [&] {
    std::lock_guard<std::mutex> lk(maps_mu_);
    std::optional<TxClassKeys>& slot = tx_keys_[op];
    if (!slot.has_value()) {
      const std::string cls =
          op_namer_ != nullptr ? op_namer_(op) : "op" + std::to_string(op);
      slot = TxClassKeys{base::StatKey("reqrep.tx_msgs." + cls),
                         base::StatKey("reqrep.tx_bytes." + cls)};
    }
    return *slot;
  }();
  stats_.Inc(keys.msgs);
  stats_.Inc(keys.bytes, static_cast<std::int64_t>(wire_bytes));
}

Endpoint::DedupEntry* Endpoint::DedupFind(HostId origin,
                                          std::uint64_t req_id) {
  auto it = dedup_.find({origin, req_id});
  return it == dedup_.end() ? nullptr : &it->second;
}

Endpoint::DedupEntry* Endpoint::DedupClaim(HostId origin,
                                           std::uint64_t req_id) {
  auto [it, inserted] = dedup_.try_emplace({origin, req_id});
  if (!inserted) return &it->second;
  while (dedup_order_.size() >= cfg_.dedup_window) {
    dedup_.erase(dedup_order_.front());
    dedup_order_.pop_front();
  }
  dedup_order_.emplace_back(origin, req_id);
  return nullptr;
}

CallResult Endpoint::CallWithStatus(HostId dst, std::uint8_t op, Body body,
                                    MsgKind kind, const CallOpts& opts) {
  auto multi = MultiCallWithStatus({dst}, op, std::move(body), kind, opts);
  CallResult out;
  out.status = multi.status;
  if (multi.status == CallStatus::kOk) out.body = std::move(multi.replies[0]);
  return out;
}

MultiCallResult Endpoint::MultiCallWithStatus(const std::vector<HostId>& dsts,
                                              std::uint8_t op, Body body,
                                              MsgKind kind,
                                              const CallOpts& opts) {
  MERMAID_CHECK(started_);
  MERMAID_CHECK(!dsts.empty());
  const SimDuration timeout =
      opts.timeout > 0 ? opts.timeout : cfg_.call_timeout;
  const int max_attempts =
      opts.max_attempts > 0 ? opts.max_attempts : cfg_.max_attempts;

  sim::Chan<ReplyMsg> reply_chan(rt_);
  struct Slot {
    std::uint64_t req_id = 0;
    int attempts = 1;
    bool done = false;
    base::BufferChain reply;
  };
  std::vector<Slot> slots(dsts.size());
  // Stamped once at call start: a call that survives its host's crash as a
  // zombie process keeps retransmitting with the old incarnation, so every
  // receiver that has heard from the new life fences it.
  std::uint32_t origin_inc = 0;
  {
    std::lock_guard<std::mutex> lk(maps_mu_);
    origin_inc = incarnation_;
    for (auto& slot : slots) {
      slot.req_id = next_req_id_++;
      pending_.emplace(slot.req_id, reply_chan);
    }
  }
  for (std::size_t i = 0; i < dsts.size(); ++i) {
    SendRequestWire(WireType::kRequest, dsts[i], op, self_, slots[i].req_id,
                    origin_inc, body, kind);
    stats_.Inc(kRequestsSent);
  }

  std::size_t remaining = dsts.size();
  // Attempt k's wait is min(timeout * factor^(k-1), cap) with +/- jitter so
  // concurrent losers of the same page don't retransmit in lockstep.
  const SimTime call_start = rt_.Now();
  double wait_ns = static_cast<double>(timeout);
  SimTime deadline = call_start + timeout;
  bool shutdown = false;
  while (remaining > 0) {
    bool timed_out = false;
    auto msg = reply_chan.RecvUntil(deadline, &timed_out);
    if (msg.has_value()) {
      for (auto& s : slots) {
        if (!s.done && s.req_id == msg->req_id) {
          s.done = true;
          s.reply = std::move(msg->body);
          --remaining;
          // Time from first send to this slot's reply — retransmitted
          // attempts fold into one sample, matching what the caller waited.
          stats_.Hist(kRttMs, ToMillis(rt_.Now() - call_start));
          break;
        }
      }
      continue;
    }
    if (!timed_out) {  // runtime shutdown
      shutdown = true;
      break;
    }
    if (cfg_.carry_incarnation) {
      // The endpoint reincarnated under this call (crash-with-amnesia):
      // the pending entry is gone and every receiver fences the stale
      // origin_inc, so retransmitting would spin the attempt budget dry.
      // Bail out as a timeout; the caller's retry issues a fresh call
      // stamped with the new life.
      std::lock_guard<std::mutex> lk(maps_mu_);
      if (incarnation_ != origin_inc) break;
    }
    // Deadline hit: retransmit every unanswered request that has attempts
    // left; give up on the rest.
    bool any_left = false;
    for (std::size_t i = 0; i < dsts.size(); ++i) {
      Slot& s = slots[i];
      if (s.done || s.attempts >= max_attempts) continue;
      ++s.attempts;
      any_left = true;
      stats_.Inc(kRetransmits);
      if (tracer_ != nullptr && tracer_->enabled()) {
        tracer_->Record(trace::EventKind::kRetransmit, self_, rt_.Now(),
                        trace::kNoPage, s.req_id, 0, s.attempts, dsts[i]);
      }
      SendRequestWire(WireType::kRequest, dsts[i], op, self_, s.req_id,
                      origin_inc, body, kind);
    }
    if (!any_left) break;
    wait_ns = std::min(wait_ns * cfg_.backoff_factor,
                       static_cast<double>(cfg_.backoff_cap));
    double jittered = wait_ns;
    if (cfg_.backoff_jitter > 0) {
      std::lock_guard<std::mutex> lk(maps_mu_);
      jittered *=
          1.0 + cfg_.backoff_jitter * (2.0 * backoff_rng_.NextDouble() - 1.0);
    }
    const auto wait = std::max<SimDuration>(
        1, static_cast<SimDuration>(jittered));
    if (wait > timeout) {
      stats_.Inc(kBackoffTotalMs,
                 static_cast<std::int64_t>((wait - timeout) / 1'000'000));
    }
    deadline = rt_.Now() + wait;
  }

  {
    std::lock_guard<std::mutex> lk(maps_mu_);
    for (const auto& s : slots) pending_.erase(s.req_id);
  }
  MultiCallResult out;
  out.replies.resize(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].done) {
      out.replies[i] = std::move(slots[i].reply);
    } else {
      out.timed_out.push_back(i);
    }
  }
  if (shutdown) {
    out.status = CallStatus::kShutdown;
    stats_.Inc(kCallFailures);
  } else if (remaining > 0) {
    out.status = CallStatus::kTimedOut;
    stats_.Inc(kCallFailures);
    stats_.Inc(kCallTimeouts);
    if (tracer_ != nullptr && tracer_->enabled()) {
      for (const auto& s : slots) {
        if (s.done) continue;
        tracer_->Record(trace::EventKind::kCallTimeout, self_, rt_.Now(),
                        trace::kNoPage, s.req_id, 0, s.attempts);
      }
    }
  } else {
    out.status = CallStatus::kOk;
  }
  return out;
}

void Endpoint::Notify(HostId dst, std::uint8_t op, Body body, MsgKind kind) {
  stats_.Inc(kNotifiesSent);
  std::uint32_t origin_inc = 0;
  if (cfg_.carry_incarnation) {
    std::lock_guard<std::mutex> lk(maps_mu_);
    origin_inc = incarnation_;
  }
  SendRequestWire(WireType::kNotify, dst, op, self_, 0, origin_inc, body,
                  kind);
}

}  // namespace mermaid::net
