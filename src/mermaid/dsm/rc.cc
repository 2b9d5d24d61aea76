// Release consistency (DESIGN.md §11).
//
// Under SystemConfig::release_consistency a write fault never invalidates
// the copyset: the writer twins the page and defers its writes, and every
// sync operation is a release point that diffs the twins against the
// working copies and flushes only the dirty byte ranges to each page's
// home (the fixed manager — ownership never migrates under this mode, so
// home == owner == manager for every page). Acquiring sync operations
// (P / EventWait / Barrier) return the write notices published since this
// host last looked; stale local read copies are invalidated lazily there
// instead of eagerly at every store.
#include "mermaid/dsm/host.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "mermaid/base/check.h"
#include "mermaid/base/wire.h"

namespace mermaid::dsm {

namespace {

// Stat keys this file bumps, resolved once (see base::StatKey). The rarer
// release-consistency counters are bumped by name.
const base::StatKey kMalformed("dsm.malformed");
const base::StatKey kRecoveryDroppedReqs("dsm.recovery_dropped_reqs");

}  // namespace

Host::RcTwinResult Host::RcTwinPage(PageNum p) {
  std::lock_guard<std::mutex> lk(state_mu_);
  LocalPageEntry& e = ptable_.Local(p);
  if (e.access >= Access::kWrite) return RcTwinResult::kOk;  // already live
  if (e.access < Access::kRead) return RcTwinResult::kNoCopy;
  if (dir_.BaseManagedHere(p)) {
    // The home writes its master copy in place: there is nothing to diff
    // against later (release just commits a version bump), so no twin
    // buffer and zero wire bytes.
    rc_home_dirty_.insert(p);
    e.access = Access::kWrite;
    if (referee_ != nullptr) referee_->OnRcTwin(self_, p);
    const std::uint64_t ev =
        TraceEv(trace::EventKind::kTwinCreate, p, 0, 0,
                static_cast<std::int64_t>(e.version), /*home_dirty=*/1);
    TraceBind(trace::RcTwinKey(self_, p), ev);
    stats_.Inc("dsm.rc_home_dirty_marks");
    return RcTwinResult::kOk;
  }
  // Twins held at once; a write fault past the cap flushes every twin
  // first (an early release of the dirty data only: no sync notice is
  // published until the next sync op).
  constexpr std::size_t kRcMaxTwins = 128;
  if (rc_twins_.size() >= kRcMaxTwins) {
    stats_.Inc("dsm.rc_twin_capacity_flushes");
    return RcTwinResult::kCapacity;
  }
  const GlobalAddr base = static_cast<GlobalAddr>(p) * page_bytes_;
  std::uint32_t extent = page_bytes_;
  if (cfg_.partial_page_transfer && e.alloc_bytes != 0) {
    extent = std::min(e.alloc_bytes, page_bytes_);
  }
  RcTwin twin;
  twin.base.assign(mem_.begin() + base, mem_.begin() + base + extent);
  twin.base_version = e.version;
  base::BulkCopyRecord(twin.base.size());
  rc_twins_.emplace(p, std::move(twin));
  e.access = Access::kWrite;  // local write permission only; owned stays off
  if (referee_ != nullptr) referee_->OnRcTwin(self_, p);
  const std::uint64_t ev =
      TraceEv(trace::EventKind::kTwinCreate, p, 0, 0,
              static_cast<std::int64_t>(e.version), /*home_dirty=*/0);
  TraceBind(trace::RcTwinKey(self_, p), ev);
  stats_.Inc("dsm.rc_twins");
  return RcTwinResult::kOk;
}

void Host::RcFlushTwins() {
  if (!cfg_.release_consistency) return;
  struct PendingFlush {
    PageNum page = 0;
    std::uint64_t seq = 0;
    std::uint64_t base_version = 0;
    arch::TypeId type = arch::TypeRegistry::kChar;
    bool home_dirty = false;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
    std::vector<std::uint8_t> bytes;  // concatenated slot-aligned ranges
    std::uint64_t twin_ev = 0;
  };
  std::vector<PendingFlush> flushes;
  std::uint32_t life = 0;

  // Snapshot-claim: under one lock acquisition, diff every twin, demote the
  // page back to read access, and erase the twin. A thread writing the page
  // concurrently re-faults into a fresh twin after the demote, so no store
  // is ever lost between snapshot and flush.
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    life = life_;
    // Demotes page p back to read access and starts its flush record.
    const auto release = [&](PageNum p) {
      PendingFlush f;
      f.page = p;
      f.seq = ++rc_flush_seq_;
      f.twin_ev = TraceParent(trace::RcTwinKey(self_, p));
      ptable_.Local(p).access = Access::kRead;
      if (referee_ != nullptr) {
        referee_->OnRcRelease(self_, p, /*kept_copy=*/true);
      }
      return f;
    };
    for (auto& [p, twin] : rc_twins_) {
      const GlobalAddr base = static_cast<GlobalAddr>(p) * page_bytes_;
      const std::uint32_t extent =
          static_cast<std::uint32_t>(twin.base.size());
      const arch::TypeId type = ptable_.Local(p).type;
      const std::uint32_t stride =
          static_cast<std::uint32_t>(std::bit_ceil(registry_.SizeOf(type)));
      PendingFlush f = release(p);
      f.base_version = twin.base_version;
      f.type = type;
      // Scan at slot granularity (the allocator's power-of-two stride, the
      // same unit the conversion layer works in) and coalesce consecutive
      // dirty slots into ranges.
      std::uint32_t diff_bytes = 0;
      for (std::uint32_t off = 0; off + stride <= extent;) {
        if (std::memcmp(twin.base.data() + off, mem_.data() + base + off,
                        stride) != 0) {
          std::uint32_t run = stride;
          while (off + run + stride <= extent &&
                 std::memcmp(twin.base.data() + off + run,
                             mem_.data() + base + off + run, stride) != 0) {
            run += stride;
          }
          f.ranges.emplace_back(off, run);
          diff_bytes += run;
          off += run;
        } else {
          off += stride;
        }
      }
      // Past the crossover (dirty bytes at this percentage of the extent) a
      // range list costs more than the page: send one full-extent range
      // instead (the degenerate diff IS the SC transfer).
      constexpr std::uint64_t kRcDiffCrossoverPct = 50;
      if (!f.ranges.empty() &&
          static_cast<std::uint64_t>(diff_bytes) * 100 >=
              kRcDiffCrossoverPct * extent) {
        const std::uint32_t full = extent - extent % stride;
        f.ranges.assign(1, {0u, full});
        stats_.Inc("dsm.rc_flush_full_extent");
      }
      for (const auto& [off, len] : f.ranges) {
        f.bytes.insert(f.bytes.end(), mem_.begin() + base + off,
                       mem_.begin() + base + off + len);
      }
      if (f.ranges.empty()) {
        stats_.Inc("dsm.rc_clean_twins");  // nothing stored; just released
      } else {
        flushes.push_back(std::move(f));
      }
    }
    rc_twins_.clear();
    for (PageNum p : rc_home_dirty_) {
      flushes.push_back(release(p));
      flushes.back().home_dirty = true;
    }
    rc_home_dirty_.clear();
  }

  for (auto& f : flushes) {
    std::uint64_t new_version = 0;
    std::uint64_t prev_version = 0;
    bool applied = false;
    if (f.home_dirty) {
      // The master copy already holds the writes: committing is a version
      // bump — but not while a transfer serving the pre-release version is
      // in flight (its reply would install bytes labeled with a version the
      // commit just retired).
      for (int round = 0;; ++round) {
        bool busy = false;
        {
          std::lock_guard<std::mutex> lk(state_mu_);
          if (life != life_) break;  // crashed mid-release: state is gone
          ManagerEntry& m = dir_.Manager(f.page);
          if (m.busy) {
            busy = true;
          } else {
            const auto nv = RcCommitFlushLocked(f.page, self_);
            new_version = nv.first;
            prev_version = nv.second;
            applied = true;
          }
        }
        if (!busy) break;
        MERMAID_CHECK_MSG(round <= cfg_.fault_retry_limit * 8,
                          "home-dirty release outwaited its retry budget");
        stats_.Inc("dsm.rc_flush_busy_retries");
        rt_.Delay(FaultBackoff(std::min(round + 1, 8)));
      }
      if (applied) {
        const std::uint64_t ev =
            TraceEv(trace::EventKind::kDiffFlush, f.page, f.seq, f.twin_ev,
                    /*diff_bytes=*/0, /*ranges=*/0);
        TraceBind(trace::RcNoticeKey(f.page), ev);
        stats_.Inc("dsm.rc_flushes");
      }
    } else {
      base::WireWriter w;
      w.U32(f.page);
      w.U64(f.seq);
      w.U16(f.type);
      w.U8(arch::RepClassByte(*profile_));
      w.U16(static_cast<std::uint16_t>(f.ranges.size()));
      for (const auto& [off, len] : f.ranges) {
        w.U32(off);
        w.U32(len);
      }
      w.Raw(f.bytes);
      const net::Body body(std::move(w).Take());
      const net::HostId home = dir_.BaseManagerOf(f.page);
      for (int round = 0;; ++round) {
        {
          std::lock_guard<std::mutex> lk(state_mu_);
          if (life != life_) break;  // crashed mid-release
        }
        auto resp = endpoint_.CallWithStatus(home, kOpDiffFlush, body,
                                             net::MsgKind::kData,
                                             DsmCallOpts());
        if (resp.status == net::CallStatus::kShutdown) return;
        if (resp.status == net::CallStatus::kOk) {
          const auto rb = resp.body.ToVector();
          base::WireReader r(rb);
          const std::uint8_t status = r.U8();
          if (status == 0) {
            new_version = r.U64();
            prev_version = r.U64();
            if (r.ok()) {
              applied = true;
              break;
            }
          }
          // Busy or recovering home: back off and re-flush (same seq; the
          // home deduplicates if the earlier attempt actually applied).
        }
        MERMAID_CHECK_MSG(round <= cfg_.fault_retry_limit * 8,
                          "diff flush exhausted its retry budget");
        stats_.Inc("dsm.rc_flush_retries");
        rt_.Delay(FaultBackoff(std::min(round + 1, 8)));
      }
      if (applied) {
        stats_.Inc("dsm.rc_flushes");
        stats_.Inc("dsm.rc_flush_bytes",
                   static_cast<std::int64_t>(f.bytes.size()));
        stats_.Inc("dsm.rc_flush_ranges",
                   static_cast<std::int64_t>(f.ranges.size()));
        const std::uint64_t ev = TraceEv(
            trace::EventKind::kDiffFlush, f.page, f.seq, f.twin_ev,
            static_cast<std::int64_t>(f.bytes.size()),
            static_cast<std::int64_t>(f.ranges.size()));
        TraceBind(trace::RcNoticeKey(f.page), ev);
        // Keep-copy rule: when nobody flushed between our twin and our
        // flush (prev == base), the local image equals the new master and
        // the copy stays valid at the committed version. Any interleaved
        // flush means our image lacks another writer's bytes: drop it.
        std::lock_guard<std::mutex> lk(state_mu_);
        if (life == life_) {
          LocalPageEntry& e = ptable_.Local(f.page);
          if (rc_twins_.count(f.page) == 0 && e.access == Access::kRead &&
              e.version == f.base_version) {
            if (prev_version == f.base_version) {
              e.version = new_version;
              stats_.Inc("dsm.rc_copies_kept");
            } else {
              e.access = Access::kNone;
              e.owned = false;
              e.retained = false;
              DropConvertCacheLocked(f.page);
              if (referee_ != nullptr) referee_->OnInvalidate(self_, f.page);
              stats_.Inc("dsm.rc_self_invalidations");
            }
          }
        }
      }
    }
    if (applied) {
      std::lock_guard<std::mutex> lk(state_mu_);
      if (life == life_) {
        rc_pending_notices_.push_back(
            {f.page, new_version, static_cast<std::uint16_t>(self_)});
      }
    }
  }
}

std::pair<std::uint64_t, std::uint64_t> Host::RcCommitFlushLocked(
    PageNum p, net::HostId origin, bool drop_cache) {
  ManagerEntry& m = dir_.Manager(p);
  const std::uint64_t prev = m.version;
  ++m.version;
  // The home's master copy tracks the committed version, and — the
  // "write bumps the version" invariant — every cached converted image of
  // this page is unservable the instant a diff mutates it. A remote diff
  // flush knows exactly which byte ranges changed, so its caller patches
  // the cached images in place instead of dropping them (drop_cache=false).
  LocalPageEntry& e = ptable_.Local(p);
  e.version = m.version;
  if (drop_cache) DropConvertCacheLocked(p);
  if (referee_ != nullptr) referee_->OnRcFlush(origin, p, m.version);
  return {m.version, prev};
}

void Host::PatchConvertCacheLocked(
    PageNum p, std::uint64_t prev_version, std::uint64_t new_version,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& ranges) {
  // A diff flush is a partial write: whole-page converted images cached at
  // the pre-flush version stay correct outside the flushed ranges. Re-run
  // the codec on just those ranges (slot-aligned by construction) and
  // re-key the image to the committed version, instead of throwing the
  // whole conversion away.
  std::vector<ConvertCacheKey> keys;
  for (const auto& [k, img] : convert_cache_) {
    if (k.page == p && k.version == prev_version) keys.push_back(k);
  }
  const GlobalAddr base = static_cast<GlobalAddr>(p) * page_bytes_;
  const arch::TypeId type = ptable_.Local(p).type;
  for (const ConvertCacheKey& key : keys) {
    const arch::ArchProfile* target = nullptr;
    for (net::HostId h = 0; h < num_hosts_; ++h) {
      if (arch::RepClassByte(net_.ProfileOf(h)) == key.rep) {
        target = &net_.ProfileOf(h);
        break;
      }
    }
    if (target == nullptr) continue;  // no such architecture anymore
    base::Buffer& cached = convert_cache_[key];
    const std::uint32_t extent = static_cast<std::uint32_t>(cached.size());
    // Copy-on-write: the cached buffer may back an in-flight reply chain.
    std::vector<std::uint8_t> img(cached.span().begin(), cached.span().end());
    for (const auto& [off, len] : ranges) {
      if (off >= extent) continue;
      const std::uint32_t n = std::min(len, extent - off);
      std::copy(mem_.begin() + base + off, mem_.begin() + base + off + n,
                img.begin() + off);
      if (key.rep != arch::RepClassByte(*profile_)) {
        ConvertSlots(type, std::span<std::uint8_t>(img.data() + off, n), n,
                     *profile_, *target);
      }
    }
    const ConvertCacheKey new_key{p, new_version, key.rep};
    convert_cache_.erase(key);
    convert_cache_[new_key] = base::Buffer(std::move(img));
    for (auto& k : convert_cache_order_) {
      if (k == key) k = new_key;
    }
    stats_.Inc("dsm.convert_cache_patched");
  }
}

std::vector<sync::WriteNotice> Host::RcDrainNotices() {
  if (!cfg_.release_consistency) return {};
  RcFlushTwins();
  std::lock_guard<std::mutex> lk(state_mu_);
  return std::exchange(rc_pending_notices_, {});
}

void Host::RcApplyNotices(const std::vector<sync::WriteNotice>& notices,
                          bool reset) {
  if (!cfg_.release_consistency) return;
  std::lock_guard<std::mutex> lk(state_mu_);
  if (reset) {
    // The server's bounded notice log was truncated past this client's
    // cursor: unknown notices were missed, so every read copy that is
    // neither twinned nor the master here is conservatively stale. Pages
    // whose chunk was never made hold no copy.
    stats_.Inc("dsm.rc_notice_resets");
    ptable_.ForEachInUse([&](PageNum p, LocalPageEntry& e) {
      if (dir_.BaseManagedHere(p) || rc_twins_.count(p) != 0) return;
      e.retained = false;
      if (e.access == Access::kNone) return;
      e.access = Access::kNone;
      e.owned = false;
      DropConvertCacheLocked(p);
      if (referee_ != nullptr) referee_->OnInvalidate(self_, p);
      stats_.Inc("dsm.rc_reset_invalidations");
    });
  }
  for (const sync::WriteNotice& n : notices) {
    const PageNum p = n.page;
    if (p >= ptable_.num_pages()) continue;
    if (n.origin == self_) continue;          // our own flush
    if (dir_.BaseManagedHere(p)) continue;    // the master is always fresh
    if (rc_twins_.count(p) != 0) continue;    // flushed at our next release
    const LocalPageEntry& seen = std::as_const(ptable_).Local(p);
    if (seen.access == Access::kNone || seen.version >= n.version) continue;
    LocalPageEntry& e = ptable_.Local(p);
    e.access = Access::kNone;
    e.owned = false;
    e.retained = false;
    DropConvertCacheLocked(p);
    if (referee_ != nullptr) referee_->OnInvalidate(self_, p);
    TraceEv(trace::EventKind::kWriteNotice, p, 0,
            TraceParent(trace::RcNoticeKey(p)),
            static_cast<std::int64_t>(n.version), n.origin);
    stats_.Inc("dsm.rc_notices_applied");
  }
}

void Host::HandleDiffFlush(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const PageNum p = r.U32();
  const std::uint64_t seq = r.U64();
  const arch::TypeId type = r.U16();
  const std::uint8_t rep = r.U8();
  const std::uint16_t n_ranges = r.U16();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges(n_ranges);
  std::size_t total = 0;
  bool sane = true;
  for (auto& [off, len] : ranges) {
    off = r.U32();
    len = r.U32();
    if (len == 0 || off + static_cast<std::uint64_t>(len) > page_bytes_) {
      sane = false;
    }
    total += len;
  }
  const std::span<const std::uint8_t> raw = r.Raw(total);
  if (!r.ok() || !sane || !cfg_.release_consistency ||
      p >= ptable_.num_pages() || !dir_.BaseManagedHere(p)) {
    stats_.Inc(kMalformed);
    return;
  }
  const net::HostId origin = ctx.origin();
  const RcFlushKey key{p, origin, seq};
  rt_.Delay(profile_->server_op_cost);

  const auto reply_ok = [&ctx](std::uint64_t nv, std::uint64_t pv) {
    base::WireWriter w;
    w.U8(0);
    w.U64(nv);
    w.U64(pv);
    ctx.Reply(std::move(w).Take());
  };
  // Settles the request without applying it, if it must be (checked under
  // state_mu_ before the conversion and again after it).
  const auto settled_locked = [&] {
    if (recovering_) {
      // Mid-reconstruction versions are untrustworthy; drop the request so
      // the writer's call times out and retries after the rebuild.
      stats_.Inc(kRecoveryDroppedReqs);
      return true;
    }
    // A release re-issued as a fresh call after a timeout must not apply
    // its diffs twice (the endpoint dedup only covers same-req-id
    // retransmits): answer from the applied record.
    if (const auto it = rc_applied_.find(key); it != rc_applied_.end()) {
      stats_.Inc("dsm.rc_flush_replays");
      reply_ok(it->second.new_version, it->second.prev_version);
      return true;
    }
    if (dir_.Manager(p).busy) {
      // A transfer is in flight at the pre-flush version; applying now
      // would let its reply install bytes newer than their label. The
      // writer backs off and retries.
      stats_.Inc("dsm.rc_flush_busy_rejects");
      base::WireWriter w;
      w.U8(1);
      ctx.Reply(std::move(w).Take());
      return true;
    }
    return false;
  };

  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (settled_locked()) return;
  }

  // Convert outside the lock (the codec models real per-element cost). The
  // payload is a concatenation of slot-aligned ranges, i.e. a contiguous
  // element array in the writer's representation.
  std::vector<std::uint8_t> payload(raw.begin(), raw.end());
  if (cfg_.convert_enabled && rep != arch::RepClassByte(*profile_)) {
    ConvertIncoming(p, payload, type, net_.ProfileOf(origin),
                    /*run_codec=*/true);
  }

  std::uint64_t new_version = 0;
  std::uint64_t prev_version = 0;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (settled_locked()) return;  // e.g. went busy during the conversion
    const GlobalAddr base = static_cast<GlobalAddr>(p) * page_bytes_;
    std::size_t pos = 0;
    for (const auto& [off, len] : ranges) {
      std::copy(payload.begin() + pos, payload.begin() + pos + len,
                mem_.begin() + base + off);
      pos += len;
    }
    base::BulkCopyRecord(payload.size());
    const auto nv = RcCommitFlushLocked(p, origin, /*drop_cache=*/false);
    new_version = nv.first;
    prev_version = nv.second;
    PatchConvertCacheLocked(p, prev_version, new_version, ranges);
    while (rc_applied_order_.size() >= 8192) {
      rc_applied_.erase(rc_applied_order_.front());
      rc_applied_order_.pop_front();
    }
    rc_applied_order_.push_back(key);
    rc_applied_[key] = {new_version, prev_version};
    stats_.Inc("dsm.rc_flushes_applied");
    stats_.Inc("dsm.rc_flush_bytes_in",
               static_cast<std::int64_t>(payload.size()));
  }
  reply_ok(new_version, prev_version);
}

std::size_t Host::RcTwinCount() {
  std::lock_guard<std::mutex> lk(state_mu_);
  return rc_twins_.size() + rc_home_dirty_.size();
}

}  // namespace mermaid::dsm
