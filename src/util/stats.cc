#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace entrace {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  // Population variance (divisor n); see the convention note in stats.h.
  if (n_ == 0) return 0.0;
  const double v = m2_ / static_cast<double>(n_);
  // Floating-point cancellation can leave m2_ a hair below zero.
  return v > 0.0 ? v : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_ + other.n_);
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) / n;
  mean_ = (mean_ * static_cast<double>(n_) + other.mean_ * static_cast<double>(other.n_)) / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  n_ += other.n_;
}

EmpiricalCdf::EmpiricalCdf(const EmpiricalCdf& other) {
  std::lock_guard<std::mutex> lk(other.sort_mu_);
  samples_ = other.samples_;
  sorted_.store(other.sorted_.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

EmpiricalCdf::EmpiricalCdf(EmpiricalCdf&& other) noexcept {
  std::lock_guard<std::mutex> lk(other.sort_mu_);
  samples_ = std::move(other.samples_);
  sorted_.store(other.sorted_.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

EmpiricalCdf& EmpiricalCdf::operator=(const EmpiricalCdf& other) {
  if (this == &other) return *this;
  std::scoped_lock lk(sort_mu_, other.sort_mu_);
  samples_ = other.samples_;
  sorted_.store(other.sorted_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  return *this;
}

EmpiricalCdf& EmpiricalCdf::operator=(EmpiricalCdf&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lk(sort_mu_, other.sort_mu_);
  samples_ = std::move(other.samples_);
  sorted_.store(other.sorted_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  return *this;
}

void EmpiricalCdf::add(double x) {
  samples_.push_back(x);
  sorted_.store(false, std::memory_order_relaxed);
}

void EmpiricalCdf::add_n(double x, std::size_t n) {
  samples_.insert(samples_.end(), n, x);
  sorted_.store(false, std::memory_order_relaxed);
}

// Double-checked lazy sort: concurrent const readers are common once report
// code fans out across datasets, so the sort must happen exactly once and
// later readers must observe the sorted vector (release/acquire pairing).
void EmpiricalCdf::ensure_sorted() const {
  if (sorted_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lk(sort_mu_);
  if (sorted_.load(std::memory_order_relaxed)) return;
  std::sort(samples_.begin(), samples_.end());
  sorted_.store(true, std::memory_order_release);
}

double EmpiricalCdf::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank with linear interpolation between adjacent order statistics.
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double EmpiricalCdf::min() const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  return samples_.front();
}

double EmpiricalCdf::max() const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  return samples_.back();
}

double EmpiricalCdf::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double EmpiricalCdf::fraction_below(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) / static_cast<double>(samples_.size());
}

std::vector<double> EmpiricalCdf::evaluate(std::span<const double> xs) const {
  std::vector<double> out;
  out.reserve(xs.size());
  for (double x : xs) out.push_back(fraction_below(x));
  return out;
}

const std::vector<double>& EmpiricalCdf::sorted() const {
  ensure_sorted();
  return samples_;
}

void BreakdownCounter::add(const std::string& key, std::uint64_t count, std::uint64_t bytes) {
  auto& e = entries_[key];
  e.first += count;
  e.second += bytes;
  total_count_ += count;
  total_bytes_ += bytes;
}

std::uint64_t BreakdownCounter::count(const std::string& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? 0 : it->second.first;
}

std::uint64_t BreakdownCounter::bytes(const std::string& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? 0 : it->second.second;
}

double BreakdownCounter::count_fraction(const std::string& key) const {
  return total_count_ == 0 ? 0.0
                           : static_cast<double>(count(key)) / static_cast<double>(total_count_);
}

double BreakdownCounter::bytes_fraction(const std::string& key) const {
  return total_bytes_ == 0 ? 0.0
                           : static_cast<double>(bytes(key)) / static_cast<double>(total_bytes_);
}

std::vector<std::string> BreakdownCounter::keys_by_count() const {
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  for (const auto& [k, v] : entries_) keys.push_back(k);
  std::sort(keys.begin(), keys.end(), [this](const std::string& a, const std::string& b) {
    const auto ca = count(a), cb = count(b);
    if (ca != cb) return ca > cb;
    return a < b;
  });
  return keys;
}

IntervalSeries::IntervalSeries(double bin_width) : bin_width_(bin_width) {}

void IntervalSeries::add_new_bin(std::int64_t bin, double value) {
  if (bins_.empty()) {
    first_bin_ = last_bin_ = bin;
  } else {
    first_bin_ = std::min(first_bin_, bin);
    last_bin_ = std::max(last_bin_, bin);
  }
  cached_bin_ = bin;
  cached_slot_ = &bins_[bin];
  *cached_slot_ += value;
}

void IntervalSeries::merge(const IntervalSeries& other) {
  if (other.bins_.empty()) return;
  if (bins_.empty()) {
    first_bin_ = other.first_bin_;
    last_bin_ = other.last_bin_;
  } else {
    first_bin_ = std::min(first_bin_, other.first_bin_);
    last_bin_ = std::max(last_bin_, other.last_bin_);
  }
  for (const auto& [bin, value] : other.bins_) bins_[bin] += value;
}

std::vector<double> IntervalSeries::values() const {
  std::vector<double> out;
  if (bins_.empty()) return out;
  // Every populated bin lies in [first_bin_, last_bin_]: one ordered walk
  // of the sparse map fills the dense vector, with no lookup per bin.
  out.assign(static_cast<std::size_t>(last_bin_ - first_bin_ + 1), 0.0);
  for (const auto& [bin, value] : bins_) out[static_cast<std::size_t>(bin - first_bin_)] = value;
  return out;
}

}  // namespace entrace
