#include "mermaid/dsm/referee.h"

#include <cstdio>

#include "mermaid/base/check.h"

namespace mermaid::dsm {

CoherenceReferee::PageState& CoherenceReferee::TrackLocked(PageNum page) {
  if (page >= pages_.size()) {
    pages_.resize(static_cast<std::size_t>(page) + 1);
  }
  PageState& st = pages_[page];
  st.tracked = true;
  return st;
}

const CoherenceReferee::PageState* CoherenceReferee::FindLocked(
    PageNum page) const {
  if (page >= pages_.size() || !pages_[page].tracked) return nullptr;
  return &pages_[page];
}

void CoherenceReferee::SetRelaxed(bool on) {
  std::lock_guard<std::mutex> lk(mu_);
  relaxed_ = on;
}

void CoherenceReferee::OnRcTwin(net::HostId h, PageNum page) {
  std::lock_guard<std::mutex> lk(mu_);
  MERMAID_CHECK_MSG(relaxed_, "twin created outside release-consistency mode");
  PageState& st = TrackLocked(page);
  MERMAID_CHECK_MSG(st.holders.count(h) == 1,
                    "twin created on a host without a valid copy");
  st.rc_writers.insert(h);
}

void CoherenceReferee::OnRcFlush(net::HostId h, PageNum page,
                                 std::uint64_t version) {
  (void)h;
  std::lock_guard<std::mutex> lk(mu_);
  MERMAID_CHECK_MSG(relaxed_, "diff flushed outside release-consistency mode");
  PageState& st = TrackLocked(page);
  MERMAID_CHECK_MSG(version >= st.version,
                    "diff flush moved the committed version backwards");
  st.version = version;
}

void CoherenceReferee::OnRcRelease(net::HostId h, PageNum page,
                                   bool kept_copy) {
  std::lock_guard<std::mutex> lk(mu_);
  MERMAID_CHECK_MSG(relaxed_, "twin released outside release-consistency mode");
  PageState& st = TrackLocked(page);
  st.rc_writers.erase(h);
  if (!kept_copy) st.holders.erase(h);
}

void CoherenceReferee::OnInstall(net::HostId h, PageNum page,
                                 std::uint64_t version, Access access) {
  std::lock_guard<std::mutex> lk(mu_);
  PageState& st = TrackLocked(page);
  if (st.orphaned && st.holders.empty()) {
    // The committed copy died with its holders; a recovery promotion may
    // legally re-animate an older retained image as the new lineage.
    st.version = version;
    st.orphaned = false;
  }
  MERMAID_CHECK_MSG(version >= st.version,
                    "host installed a copy older than the committed version");
  if (version > st.version) {
    st.version = version;
  }
  st.holders.insert(h);
  if (access == Access::kWrite) {
    MERMAID_CHECK_MSG(!st.writer.has_value() || *st.writer == h,
                      "two hosts hold write access to the same page");
    MERMAID_CHECK_MSG(st.holders.size() == 1,
                      "write copy installed while other copies exist");
    st.writer = h;
  }
}

void CoherenceReferee::OnWriteGrant(net::HostId h, PageNum page,
                                    std::uint64_t version) {
  std::lock_guard<std::mutex> lk(mu_);
  PageState& st = TrackLocked(page);
  MERMAID_CHECK_MSG(!st.writer.has_value() || *st.writer == h,
                    "write granted while another host holds write access");
  MERMAID_CHECK_MSG(st.holders.count(h) == 1,
                    "write granted to a host without a copy");
  MERMAID_CHECK_MSG(st.holders.size() == 1,
                    "write granted while other hosts hold copies");
  MERMAID_CHECK_MSG(version > st.version || st.writer == h,
                    "write grant did not advance the page version");
  st.version = version;
  st.writer = h;
}

void CoherenceReferee::OnDowngrade(net::HostId h, PageNum page) {
  std::lock_guard<std::mutex> lk(mu_);
  PageState& st = TrackLocked(page);
  if (st.writer.has_value() && *st.writer == h) st.writer.reset();
}

void CoherenceReferee::OnInvalidate(net::HostId h, PageNum page) {
  std::lock_guard<std::mutex> lk(mu_);
  PageState& st = TrackLocked(page);
  st.holders.erase(h);
  if (st.writer.has_value() && *st.writer == h) st.writer.reset();
  st.rc_writers.erase(h);
}

void CoherenceReferee::OnHostCrash(net::HostId h) {
  std::lock_guard<std::mutex> lk(mu_);
  for (PageState& st : pages_) {
    const bool held = st.holders.erase(h) != 0;
    if (st.writer.has_value() && *st.writer == h) st.writer.reset();
    st.rc_writers.erase(h);
    if (held && st.holders.empty()) st.orphaned = true;
  }
}

void CoherenceReferee::OnReinit(net::HostId h, PageNum page,
                                std::uint64_t version) {
  std::lock_guard<std::mutex> lk(mu_);
  PageState& st = TrackLocked(page);
  if (!st.holders.empty()) {
    std::fprintf(stderr,
                 "referee: host %u reinitialized page %u (version %llu) "
                 "with live holders:",
                 static_cast<unsigned>(h), static_cast<unsigned>(page),
                 static_cast<unsigned long long>(st.version));
    for (net::HostId holder : st.holders) {
      std::fprintf(stderr, " %u", static_cast<unsigned>(holder));
    }
    std::fprintf(stderr, "\n");
  }
  MERMAID_CHECK_MSG(st.holders.empty(),
                    "page re-initialized while live copies exist");
  // The committed version restarts: the old history died with the sole
  // owner, and the referee must accept the fresh zero-page lineage.
  st.version = version;
  st.holders = {h};
  st.writer.reset();
  st.orphaned = false;
}

void CoherenceReferee::CheckAccess(net::HostId h, PageNum page,
                                   std::uint64_t local_version,
                                   Access access) const {
  std::lock_guard<std::mutex> lk(mu_);
  const PageState* found = FindLocked(page);
  MERMAID_CHECK_MSG(found != nullptr, "access to an untracked page");
  const PageState& st = *found;
  MERMAID_CHECK_MSG(st.holders.count(h) == 1,
                    "access on a host without a valid copy");
  if (relaxed_) {
    // Release consistency: a copy may legally trail the committed version
    // until the next acquire pulls the write notice; writes are legal on
    // any live twin.
    MERMAID_CHECK_MSG(local_version <= st.version,
                      "access through a copy newer than the committed page");
    if (access == Access::kWrite) {
      MERMAID_CHECK_MSG(st.rc_writers.count(h) == 1,
                        "write access without a live twin");
    }
    return;
  }
  MERMAID_CHECK_MSG(local_version == st.version,
                    "access through a stale copy");
  if (access == Access::kWrite) {
    MERMAID_CHECK_MSG(st.writer.has_value() && *st.writer == h,
                      "write access without the write grant");
  }
}

}  // namespace mermaid::dsm
