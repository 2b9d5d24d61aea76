// The data path: page conversion at the receiver, the owner's conversion
// cache upkeep, the wire codecs of the transfer legs, and the bounded FIFOs
// that fence disowned grants and remember completed ones for
// confirm-probe replay.
#include "mermaid/dsm/host.h"

#include <bit>
#include <optional>
#include <utility>

#include "mermaid/base/wire.h"

namespace mermaid::dsm {

namespace {

// Stat keys this file bumps, resolved once (see base::StatKey).
const base::StatKey kConversions("dsm.conversions");
const base::StatKey kConvertCacheEvictions("dsm.convert_cache_evictions");
const base::StatKey kConvertLossy("dsm.convert_lossy");
const base::StatKey kConvertMs("dsm.convert_ms");
const base::StatKey kConvertTimeMs("dsm.convert_time_ms");
const base::StatKey kConvertedElements("dsm.converted_elements");

}  // namespace

std::int64_t Host::ConvertSlots(arch::TypeId type,
                                std::span<std::uint8_t> data,
                                std::uint32_t extent,
                                const arch::ArchProfile& from,
                                const arch::ArchProfile& to) const {
  arch::ConvertStats cstats;
  arch::ConvertContext ctx;
  ctx.src = &from;
  ctx.dst = &to;
  ctx.stats = &cstats;
  const std::size_t stride = std::bit_ceil(registry_.SizeOf(type));
  registry_.ConvertStrided(type, data.first(extent), extent / stride, stride,
                           ctx);
  return cstats.total_lossy();
}

void Host::ConvertIncoming(PageNum p, std::span<std::uint8_t> data,
                           arch::TypeId type, const arch::ArchProfile& from,
                           bool run_codec) {
  if (run_codec) {
    const std::int64_t lossy =
        ConvertSlots(type, data, static_cast<std::uint32_t>(data.size()),
                     from, *profile_);
    if (lossy > 0) stats_.Inc(kConvertLossy, lossy);
  }
  // The calibrated Table-3 delay and the per-host conversion counters are
  // always charged at the receiver, independent of where the codec ran, so
  // first-fault timing and stats match the paper's receiver-converts model.
  const std::size_t stride = std::bit_ceil(registry_.SizeOf(type));
  const std::size_t elems = data.size() / stride;
  const SimDuration delay = registry_.ModeledElementCost(*profile_, type) *
                            static_cast<SimDuration>(elems);
  rt_.Delay(delay);
  stats_.Inc(kConversions);
  stats_.Inc(kConvertedElements, static_cast<std::int64_t>(elems));
  stats_.Sample(kConvertMs, ToMillis(delay));
  stats_.Hist(kConvertTimeMs, ToMillis(delay));
  TraceEv(trace::EventKind::kConvert, p, 0, 0,
          static_cast<std::int64_t>(elems),
          static_cast<std::int64_t>(delay));
}

void Host::DropConvertCacheLocked(PageNum p) {
  for (auto it = convert_cache_.begin(); it != convert_cache_.end();) {
    if (it->first.page == p) {
      it = convert_cache_.erase(it);
      stats_.Inc(kConvertCacheEvictions);
    } else {
      ++it;
    }
  }
  std::erase_if(convert_cache_order_,
                [p](const ConvertCacheKey& k) { return k.page == p; });
}

void Host::FenceOpLocked(PageNum p, std::uint64_t op_id) {
  if (fenced_.insert({p, op_id}).second) {
    while (fenced_order_.size() >= 4096) {
      fenced_.erase(fenced_order_.front());
      fenced_order_.pop_front();
    }
    fenced_order_.emplace_back(p, op_id);
  }
}

void Host::RecordCompleted(PageNum p, std::uint64_t op_id, bool is_write) {
  std::lock_guard<std::mutex> lk(state_mu_);
  inflight_ops_.erase({p, op_id});
  while (completed_order_.size() >= 4096) {
    completed_.erase(completed_order_.front());
    completed_order_.pop_front();
  }
  completed_order_.emplace_back(p, op_id);
  completed_[{p, op_id}] = is_write;
}

net::Body Host::EncodeOwnerFetch(PageNum p, const ManagerGrant& grant) {
  base::WireWriter w;
  w.U8(kToOwner);
  w.U32(p);
  w.U64(grant.op_id);
  w.U64(grant.new_version);
  w.U8(grant.requester_has_copy ? 0 : 1);  // data_needed
  w.U16(grant.type);
  w.U32(grant.alloc_bytes);
  w.U16(static_cast<std::uint16_t>(grant.to_invalidate.size()));
  for (net::HostId h : grant.to_invalidate) w.U16(h);
  return std::move(w).Take();
}

net::Body Host::EncodeFetchReply(const FetchReply& r) const {
  base::WireWriter w;
  w.U64(r.op_id);
  w.U64(r.data_version);
  w.U64(r.new_version);
  w.U16(r.owner);
  w.U16(r.type);
  w.U32(r.alloc_bytes);
  w.U16(static_cast<std::uint16_t>(r.to_invalidate.size()));
  for (net::HostId h : r.to_invalidate) w.U16(h);
  w.U8(r.has_data ? 1 : 0);
  w.U8(r.data_rep);
  w.U8(static_cast<std::uint8_t>((r.sender_converted ? 1 : 0) |
                                 (r.from_cache ? 2 : 0) |
                                 (r.owner_lost ? 4 : 0)));
  // The page data rides as a shared buffer chain behind the metadata — the
  // endpoint and fragment layers never copy it.
  return net::Body(std::move(w).Take(), r.data);
}

std::optional<Host::FetchReply> Host::DecodeFetchReply(
    const base::BufferChain& body) const {
  // Metadata sits in the first chunk by construction (the sender serializes
  // framing + metadata into one buffer); fall back to flattening if a
  // degenerate MTU split it. A body that decodes neither way is malformed.
  base::Buffer meta =
      body.chunk_count() > 0 ? body.chunk(0) : base::Buffer();
  bool flattened = false;
  for (;;) {
    base::WireReader r(meta.span());
    FetchReply out;
    out.op_id = r.U64();
    out.data_version = r.U64();
    out.new_version = r.U64();
    out.owner = r.U16();
    out.type = r.U16();
    out.alloc_bytes = r.U32();
    const std::uint16_t n = r.U16();
    out.to_invalidate.resize(n);
    for (auto& h : out.to_invalidate) h = r.U16();
    out.has_data = r.U8() != 0;
    out.data_rep = r.U8();
    const std::uint8_t flags = r.U8();
    out.sender_converted = (flags & 1) != 0;
    out.from_cache = (flags & 2) != 0;
    out.owner_lost = (flags & 4) != 0;
    if (r.ok()) {
      if (out.has_data) {
        const std::size_t consumed = meta.size() - r.remaining();
        out.data = flattened ? base::BufferChain(meta).Slice(consumed)
                             : body.Slice(consumed);
      }
      return out;
    }
    if (flattened || meta.size() >= body.size()) return std::nullopt;
    meta = body.Flatten();
    flattened = true;
  }
}

}  // namespace mermaid::dsm
