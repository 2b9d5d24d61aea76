#include "mermaid/net/fragment.h"

#include <algorithm>

#include "mermaid/base/check.h"
#include "mermaid/base/wire.h"

namespace mermaid::net {

namespace {

// Per-fragment stat keys, resolved once (see base::StatKey).
const base::StatKey kMalformedDropped("frag.malformed_dropped");
const base::StatKey kMessagesDelivered("frag.messages_delivered");
const base::StatKey kDuplicateFragments("frag.duplicate_fragments");
const base::StatKey kStalePartialsDropped("frag.stale_partials_dropped");
const base::StatKey kReassemblyExpired("net.reassembly_expired");

}  // namespace

Fragmenter::Fragmenter(sim::Runtime& rt, Network& net, HostId self)
    : rt_(rt), net_(net), self_(self), next_msg_id_(1) {}

void Fragmenter::Send(Message msg) {
  MERMAID_CHECK(msg.src == self_);
  const std::size_t max_payload = net_.mtu() - kFragHeaderBytes;
  const std::size_t count =
      std::max<std::size_t>(1, (msg.payload.size() + max_payload - 1) /
                                   max_payload);
  MERMAID_CHECK_MSG(count <= 0xFFFF, "message too large to fragment");

  const arch::LinkCost link = arch::LinkCostFor(
      net_.ProfileOf(msg.src), net_.ProfileOf(msg.dst));
  // User-level fragmentation/copy cost, paid by the sending process — the
  // term that makes Firefly-side transfers slower in Table 2. Small control
  // messages are exempt: their send-side processing is already inside the
  // calibrated fault-handling and request-processing constants (Table 1
  // "includes the request message transmission time").
  if (msg.kind == MsgKind::kData) {
    rt_.Delay(link.per_packet * static_cast<SimDuration>(count));
  }

  const std::uint64_t msg_id = next_msg_id_++;
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Record(trace::EventKind::kMsgSend, self_, rt_.Now(),
                    trace::kNoPage, msg_id, 0,
                    static_cast<std::int64_t>(count), msg.dst);
  }
  // Wire serialization of earlier fragments delays later ones.
  double cum_wire_ns = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t off = i * max_payload;
    const std::size_t len = std::min(max_payload, msg.payload.size() - off);
    base::WireWriter w;
    w.U64(msg_id);
    w.U16(msg.src);
    w.U16(static_cast<std::uint16_t>(i));
    w.U16(static_cast<std::uint16_t>(count));
    w.U8(static_cast<std::uint8_t>(msg.kind));

    Packet pkt;
    pkt.src = msg.src;
    pkt.dst = msg.dst;
    pkt.kind = msg.kind;
    // Everything but the final chunk of this fragment's range goes behind
    // the header (small protocol heads in practice); the final chunk — the
    // bulk data in a page transfer — rides as a shared zero-copy view.
    base::BufferChain range = msg.payload.Slice(off, len);
    for (std::size_t c = 0; c + 1 < range.chunk_count(); ++c) {
      w.Raw(range.chunk(c).span());
    }
    if (range.chunk_count() > 0) {
      pkt.payload = range.chunk(range.chunk_count() - 1);
    }
    pkt.bytes = std::move(w).Take();
    const auto extra = static_cast<SimDuration>(cum_wire_ns);
    cum_wire_ns +=
        link.wire_ns_per_byte * static_cast<double>(pkt.wire_size());
    net_.Send(std::move(pkt), extra);
  }
}

Reassembler::Reassembler(sim::Runtime& rt, SimDuration stale_after)
    : rt_(rt), stale_after_(stale_after) {}

std::optional<Message> Reassembler::OnPacket(Packet pkt) {
  base::WireReader r(pkt.bytes);
  const std::uint64_t msg_id = r.U64();
  const HostId src = r.U16();
  const std::uint16_t index = r.U16();
  const std::uint16_t count = r.U16();
  const auto kind = static_cast<MsgKind>(r.U8());
  if (!r.ok() || count == 0 || index >= count || src != pkt.src) {
    stats_.Inc(kMalformedDropped);
    return std::nullopt;
  }
  // Adopt the packet's wire storage: the fragment payload is a zero-copy
  // view past the header, plus the packet's bulk payload tail.
  base::BufferChain frag;
  frag.Append(base::Buffer(std::move(pkt.bytes)).Slice(kFragHeaderBytes));
  frag.Append(std::move(pkt.payload));

  const SimTime now = rt_.Now();
  std::lock_guard<std::mutex> lk(mu_);
  DropStaleLocked(now);

  if (count == 1) {
    stats_.Inc(kMessagesDelivered);
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->Record(trace::EventKind::kMsgDelivered, trace_self_, now,
                      trace::kNoPage, msg_id, 0,
                      static_cast<std::int64_t>(frag.size()));
    }
    Message msg;
    msg.src = pkt.src;
    msg.dst = pkt.dst;
    msg.kind = kind;
    msg.payload = std::move(frag);
    return msg;
  }

  Partial& part = partial_[{src, msg_id}];
  if (part.seen.empty()) {
    part.first_seen = now;
    part.kind = kind;
    part.expected = count;
    part.frags.resize(count);
    part.seen.assign(count, 0);
  }
  if (part.expected != count) {
    stats_.Inc(kMalformedDropped);
    partial_.erase({src, msg_id});
    return std::nullopt;
  }
  if (part.seen[index]) {
    stats_.Inc(kDuplicateFragments);
    return std::nullopt;  // duplicate fragment (retransmitted message)
  }
  part.frags[index] = std::move(frag);
  part.seen[index] = 1;
  ++part.received;
  if (part.received < part.expected) return std::nullopt;

  Message msg;
  msg.src = pkt.src;
  msg.dst = pkt.dst;
  msg.kind = part.kind;
  for (auto& f : part.frags) msg.payload.Append(std::move(f));
  partial_.erase({src, msg_id});
  stats_.Inc(kMessagesDelivered);
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Record(trace::EventKind::kMsgDelivered, trace_self_, now,
                    trace::kNoPage, msg_id, 0,
                    static_cast<std::int64_t>(msg.payload.size()));
  }
  return msg;
}

void Reassembler::SweepStale() {
  const SimTime now = rt_.Now();
  std::lock_guard<std::mutex> lk(mu_);
  DropStaleLocked(now);
}

void Reassembler::PurgeAll() {
  const SimTime now = rt_.Now();
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = partial_.begin(); it != partial_.end();) {
    stats_.Inc(kStalePartialsDropped);
    stats_.Inc(kReassemblyExpired);
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->Record(trace::EventKind::kReassemblyExpired, trace_self_, now,
                      trace::kNoPage, it->first.second, 0,
                      it->second.received);
    }
    it = partial_.erase(it);
  }
}

std::size_t Reassembler::partial_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return partial_.size();
}

void Reassembler::DropStaleLocked(SimTime now) {
  for (auto it = partial_.begin(); it != partial_.end();) {
    if (now - it->second.first_seen > stale_after_) {
      // Two names for one event: the legacy counter plus the net.* alias
      // that System-level stats reports (the endpoint registry merge).
      stats_.Inc(kStalePartialsDropped);
      stats_.Inc(kReassemblyExpired);
      if (tracer_ != nullptr && tracer_->enabled()) {
        tracer_->Record(trace::EventKind::kReassemblyExpired, trace_self_,
                        now, trace::kNoPage, it->first.second, 0,
                        it->second.received);
      }
      it = partial_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace mermaid::net
