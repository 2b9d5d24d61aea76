#include "mermaid/base/stats.h"

#include <cmath>
#include <deque>
#include <sstream>
#include <unordered_map>

namespace mermaid::base {

void Distribution::Add(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  ++count_;
  sum_ += v;
}

void Distribution::Merge(const Distribution& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
}

int Histogram::BucketOf(double v) {
  if (v <= 0.0 || !std::isfinite(v)) return 0;
  // Two buckets per octave: floor(2*log2(v)) shifted so 1.0 -> bucket 22.
  const int idx = 22 + static_cast<int>(std::floor(2.0 * std::log2(v)));
  if (idx < 1) return 1;
  if (idx >= kBuckets) return kBuckets - 1;
  return idx;
}

double Histogram::BucketLow(int b) {
  if (b <= 0) return 0.0;
  return std::exp2((b - 22) / 2.0);
}

double Histogram::BucketHigh(int b) {
  if (b <= 0) return 0.0;
  return std::exp2((b - 21) / 2.0);
}

void Histogram::Add(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  ++count_;
  sum_ += v;
  ++buckets_[static_cast<std::size_t>(BucketOf(v))];
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (int b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p <= 0.0) return min_;
  if (p >= 100.0) return max_;
  const double rank = p / 100.0 * static_cast<double>(count_ - 1);
  std::int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (static_cast<double>(seen) > rank) {
      if (b == 0) return min_ < 0.0 ? min_ : 0.0;
      // Geometric midpoint of the bucket, clamped to observed extremes.
      double est = std::sqrt(BucketLow(b) * BucketHigh(b));
      if (est < min_) est = min_;
      if (est > max_) est = max_;
      return est;
    }
  }
  return max_;
}

namespace {

// The process-wide name table behind StatKey. Names live in a deque, so
// the views keyed in `ids` and the references KeyName hands out stay valid
// as the table grows.
struct KeyTable {
  std::mutex mu;
  std::deque<std::string> names;  // indexed by key id
  std::unordered_map<std::string_view, std::uint32_t> ids;
};

// Never destroyed: keys must stay resolvable while static objects that
// hold registries are torn down.
KeyTable& Keys() {
  static KeyTable* const table = new KeyTable;
  return *table;
}

const std::string& KeyName(std::uint32_t id) {
  KeyTable& t = Keys();
  std::lock_guard<std::mutex> lk(t.mu);
  return t.names[id];
}

// The slot for `id`, growing the vector to reach it.
template <typename T>
T& SlotAt(std::vector<T>& v, std::uint32_t id) {
  if (id >= v.size()) v.resize(static_cast<std::size_t>(id) + 1);
  return v[id];
}

// Every touched distribution or histogram slot, as (name, value) in a
// name-sorted map.
template <typename T>
std::map<std::string, T> NamedView(
    const std::vector<std::unique_ptr<T>>& slots) {
  std::map<std::string, T> out;
  for (std::uint32_t id = 0; id < slots.size(); ++id) {
    if (slots[id] != nullptr) out.emplace(KeyName(id), *slots[id]);
  }
  return out;
}

// Copy of `key`'s slot, or an empty value if the name was never interned
// or never touched in this registry.
template <typename T>
T CopyOf(const std::vector<std::unique_ptr<T>>& slots,
         std::optional<StatKey> key) {
  if (!key.has_value() || key->id() >= slots.size() ||
      slots[key->id()] == nullptr) {
    return T{};
  }
  return *slots[key->id()];
}

std::uint32_t Intern(std::string_view name) {
  KeyTable& t = Keys();
  std::lock_guard<std::mutex> lk(t.mu);
  auto it = t.ids.find(name);
  if (it != t.ids.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(t.names.size());
  t.ids.emplace(t.names.emplace_back(name), id);
  return id;
}

}  // namespace

StatKey::StatKey(std::string_view name) : id_(Intern(name)) {}

std::optional<StatKey> StatKey::Find(std::string_view name) {
  KeyTable& t = Keys();
  std::lock_guard<std::mutex> lk(t.mu);
  auto it = t.ids.find(name);
  if (it == t.ids.end()) return std::nullopt;
  return StatKey(it->second);
}

void StatsRegistry::Inc(StatKey key, std::int64_t delta) {
  std::lock_guard<std::mutex> lk(mu_);
  Counter& c = SlotAt(slots_.counters, key.id());
  c.value += delta;
  c.live = true;
}

void StatsRegistry::Sample(StatKey key, double value) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& d = SlotAt(slots_.dists, key.id());
  if (d == nullptr) d = std::make_unique<Distribution>();
  d->Add(value);
}

void StatsRegistry::Hist(StatKey key, double value) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& h = SlotAt(slots_.hists, key.id());
  if (h == nullptr) h = std::make_unique<Histogram>();
  h->Add(value);
}

std::int64_t StatsRegistry::Count(std::string_view name) const {
  const auto key = StatKey::Find(name);
  if (!key.has_value()) return 0;
  std::lock_guard<std::mutex> lk(mu_);
  return key->id() < slots_.counters.size()
             ? slots_.counters[key->id()].value
             : 0;
}

Distribution StatsRegistry::DistCopy(std::string_view name) const {
  const auto key = StatKey::Find(name);
  std::lock_guard<std::mutex> lk(mu_);
  return CopyOf(slots_.dists, key);
}

Histogram StatsRegistry::HistCopy(std::string_view name) const {
  const auto key = StatKey::Find(name);
  std::lock_guard<std::mutex> lk(mu_);
  return CopyOf(slots_.hists, key);
}

std::map<std::string, std::int64_t> StatsRegistry::Counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::string, std::int64_t> out;
  for (std::uint32_t id = 0; id < slots_.counters.size(); ++id) {
    const Counter& c = slots_.counters[id];
    if (c.live) out.emplace(KeyName(id), c.value);
  }
  return out;
}

std::map<std::string, Distribution> StatsRegistry::Dists() const {
  std::lock_guard<std::mutex> lk(mu_);
  return NamedView(slots_.dists);
}

std::map<std::string, Histogram> StatsRegistry::Hists() const {
  std::lock_guard<std::mutex> lk(mu_);
  return NamedView(slots_.hists);
}

void StatsRegistry::Clear() {
  std::lock_guard<std::mutex> lk(mu_);
  slots_ = Slots{};
  epoch_base_.clear();
  ++epoch_;
}

std::uint64_t StatsRegistry::epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return epoch_;
}

void StatsRegistry::BeginEpoch() {
  std::lock_guard<std::mutex> lk(mu_);
  epoch_base_.assign(slots_.counters.size(), std::nullopt);
  for (std::size_t id = 0; id < slots_.counters.size(); ++id) {
    const Counter& c = slots_.counters[id];
    if (c.live) epoch_base_[id] = c.value;
  }
  ++epoch_;
}

std::int64_t StatsRegistry::CountSinceEpoch(std::string_view name) const {
  const auto key = StatKey::Find(name);
  if (!key.has_value()) return 0;
  const std::uint32_t id = key->id();
  std::lock_guard<std::mutex> lk(mu_);
  const std::int64_t total =
      id < slots_.counters.size() ? slots_.counters[id].value : 0;
  const std::int64_t base =
      id < epoch_base_.size() ? epoch_base_[id].value_or(0) : 0;
  return total - base;
}

std::map<std::string, std::int64_t> StatsRegistry::CountersSinceEpoch()
    const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::string, std::int64_t> out;
  for (std::uint32_t id = 0; id < slots_.counters.size(); ++id) {
    const Counter& c = slots_.counters[id];
    if (!c.live) continue;
    const bool baselined = id < epoch_base_.size() && epoch_base_[id];
    const std::int64_t delta = c.value - (baselined ? *epoch_base_[id] : 0);
    // A zero delta is dropped only for names that existed at BeginEpoch.
    if (baselined && delta == 0) continue;
    out.emplace(KeyName(id), delta);
  }
  return out;
}

void StatsRegistry::Merge(const StatsRegistry& other) {
  // Copy the source under its own lock first: the two locks are never
  // held together, and merging a registry into itself stays well defined.
  std::vector<Counter> counters;
  std::vector<std::pair<std::uint32_t, Distribution>> dists;
  std::vector<std::pair<std::uint32_t, Histogram>> hists;
  {
    std::lock_guard<std::mutex> lk(other.mu_);
    counters = other.slots_.counters;
    const Slots& src = other.slots_;
    for (std::uint32_t id = 0; id < src.dists.size(); ++id) {
      if (src.dists[id]) dists.emplace_back(id, *src.dists[id]);
    }
    for (std::uint32_t id = 0; id < src.hists.size(); ++id) {
      if (src.hists[id]) hists.emplace_back(id, *src.hists[id]);
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  for (std::uint32_t id = 0; id < counters.size(); ++id) {
    if (!counters[id].live) continue;
    Counter& c = SlotAt(slots_.counters, id);
    c.value += counters[id].value;
    c.live = true;
  }
  for (const auto& [id, d] : dists) {
    auto& slot = SlotAt(slots_.dists, id);
    if (slot == nullptr) slot = std::make_unique<Distribution>();
    slot->Merge(d);
  }
  for (const auto& [id, h] : hists) {
    auto& slot = SlotAt(slots_.hists, id);
    if (slot == nullptr) slot = std::make_unique<Histogram>();
    slot->Merge(h);
  }
}

std::string StatsRegistry::ToString() const {
  // Via the sorted snapshots: output order must not depend on key ids.
  const auto counters = Counters();
  const auto dists = Dists();
  const auto hists = Hists();
  std::ostringstream os;
  for (const auto& [name, v] : counters) os << name << ": " << v << "\n";
  for (const auto& [name, d] : dists) {
    os << name << ": count=" << d.count() << " mean=" << d.mean()
       << " min=" << d.min() << " max=" << d.max() << "\n";
  }
  for (const auto& [name, h] : hists) {
    os << name << ": count=" << h.count() << " mean=" << h.mean()
       << " p50=" << h.Percentile(50) << " p90=" << h.Percentile(90)
       << " p99=" << h.Percentile(99) << " max=" << h.max() << "\n";
  }
  return os.str();
}

}  // namespace mermaid::base
