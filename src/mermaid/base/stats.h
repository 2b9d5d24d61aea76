// Event counters and value distributions.
//
// The DSM engine, network, and conversion layers record what happened
// (faults, transfers, bytes, conversions) into a StatsRegistry; the
// benchmark harnesses read these to report the paper's tables and to detect
// thrashing (page-transfer explosions).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mermaid::base {

// Min/max/mean/count accumulator for a stream of samples.
class Distribution {
 public:
  void Add(double v);
  // Combines another distribution into this one; count/sum/min/max stay exact.
  void Merge(const Distribution& other);
  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::int64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

// Latency histogram with half-octave (x sqrt(2)) log-scaled buckets.
// Bucket 0 holds values <= 0; bucket b (1..63) covers
// [2^((b-22)/2), 2^((b-21)/2)), so 1.0 lands in bucket 22 and the range
// spans roughly 7e-4 .. 2e6 in whatever unit the caller samples (ms for
// the protocol latencies, a raw count for fan-outs). Percentiles are
// estimated by the bucket's geometric midpoint, clamped to observed
// min/max — half-octave resolution keeps the estimate within ~20%.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Add(double v);
  void Merge(const Histogram& other);

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  double min() const { return min_; }
  double max() const { return max_; }
  // p in [0, 100]; returns 0 when empty.
  double Percentile(double p) const;
  const std::array<std::int64_t, kBuckets>& buckets() const {
    return buckets_;
  }

  static int BucketOf(double v);
  static double BucketLow(int b);
  static double BucketHigh(int b);

 private:
  std::array<std::int64_t, kBuckets> buckets_{};
  std::int64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

// A process-wide interned stat name. Constructing one takes a lock and a
// hash lookup; after that a registry finds the key's slot by index. Hot
// paths resolve each name once (a namespace-scope constant, or a table
// filled on first use) and bump through the key:
//
//   const base::StatKey kPacketsSent("net.packets_sent");
//   ...
//   stats_.Inc(kPacketsSent);
//
// Keys are never freed, so build them from a bounded set of names. Ids
// are assigned in first-use order and never appear in any output: every
// registry view is sorted by name.
class StatKey {
 public:
  explicit StatKey(std::string_view name);

  // The key of `name` if some code has interned it; never interns.
  static std::optional<StatKey> Find(std::string_view name);

  std::uint32_t id() const { return id_; }

 private:
  explicit StatKey(std::uint32_t id) : id_(id) {}

  std::uint32_t id_;
};

// Named counters and distributions. Mutations are internally locked so
// concurrent processes under the real-time runtime can share a registry;
// under the virtual-time engine the lock is never contended. Slots live
// in vectors indexed by StatKey id; the string overloads intern the name
// first and are meant for tests and cold paths.
class StatsRegistry {
 public:
  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  void Inc(StatKey key, std::int64_t delta = 1);
  void Sample(StatKey key, double value);
  void Hist(StatKey key, double value);
  void Inc(std::string_view name, std::int64_t delta = 1) {
    Inc(StatKey(name), delta);
  }
  void Sample(std::string_view name, double value) {
    Sample(StatKey(name), value);
  }
  void Hist(std::string_view name, double value) { Hist(StatKey(name), value); }

  std::int64_t Count(std::string_view name) const;
  // Returns a snapshot (the live distribution can change concurrently).
  Distribution DistCopy(std::string_view name) const;
  Histogram HistCopy(std::string_view name) const;

  // Snapshots of every name touched in this registry, for reporting.
  // Always name-sorted, so report text and merge order are independent of
  // key ids.
  std::map<std::string, std::int64_t> Counters() const;
  std::map<std::string, Distribution> Dists() const;
  std::map<std::string, Histogram> Hists() const;

  // Drops all counters, samples, and histograms and starts a new epoch.
  // Repeated runs in one process must call this (via System::ResetStats)
  // between runs, or the second run reports cumulative numbers.
  void Clear();
  std::uint64_t epoch() const;

  // Non-destructive epoch: snapshots current counter totals as a baseline
  // so CountSinceEpoch reports run-local deltas without losing history.
  void BeginEpoch();
  std::int64_t CountSinceEpoch(std::string_view name) const;
  std::map<std::string, std::int64_t> CountersSinceEpoch() const;

  // Adds every counter, sample, and histogram of `other` into this one.
  void Merge(const StatsRegistry& other);

  std::string ToString() const;

 private:
  struct Counter {
    std::int64_t value = 0;
    bool live = false;  // touched since the last Clear (Inc by 0 counts)
  };
  struct Slots {
    std::vector<Counter> counters;
    std::vector<std::unique_ptr<Distribution>> dists;
    std::vector<std::unique_ptr<Histogram>> hists;
  };

  mutable std::mutex mu_;
  std::uint64_t epoch_ = 0;
  // All indexed by StatKey id; grown on first touch of a key.
  Slots slots_;
  // Counter totals at BeginEpoch; nullopt for names not live then.
  std::vector<std::optional<std::int64_t>> epoch_base_;
};

}  // namespace mermaid::base
