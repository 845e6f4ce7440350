#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/error.hpp"

namespace isp::obs {

// ---- Histogram -----------------------------------------------------------

Histogram::Histogram(HistogramOptions options) : options_(options) {
  ISP_CHECK(options_.min_value > 0.0, "histogram min_value must be positive");
  ISP_CHECK(options_.growth > 1.0, "histogram growth must exceed 1");
  ISP_CHECK(options_.buckets >= 1, "histogram needs at least one bucket");
  edges_.resize(options_.buckets);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    edges_[i] = options_.min_value *
                std::pow(options_.growth, static_cast<double>(i));
  }
  buckets_.assign(options_.buckets + 1, 0);  // + overflow
  lo_ = buckets_.size();
}

double Histogram::bucket_upper_edge(std::size_t i) const {
  return i < edges_.size() ? edges_[i]
                           : std::numeric_limits<double>::infinity();
}

std::size_t Histogram::bucket_index(double v) const {
  if (v <= options_.min_value) return 0;  // edges_[0] == min_value
  // NaN compares false against every edge, so it is placed explicitly:
  // bucket 1, as record() documents.
  if (std::isnan(v)) return 1;
  // Bucket i covers (edge(i-1), edge(i)]: the first edge at or above v.
  // Past the last regular edge (+infinity included) is the overflow bucket.
  const auto it = std::lower_bound(edges_.begin() + 1, edges_.end(), v);
  return static_cast<std::size_t>(it - edges_.begin());
}

void Histogram::record(double v) {
  const std::size_t i = v < 0.0 ? 0 : bucket_index(v);
  buckets_[i] += 1;
  lo_ = std::min(lo_, i);
  hi_ = std::max(hi_, i + 1);
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  count_ += 1;
  sum_ += v;
}

double Histogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t seen = 0;
  std::size_t b = 0;
  for (; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen >= rank) break;
  }
  double estimate;
  if (b == 0) {
    estimate = options_.min_value * 0.5;
  } else if (b >= options_.buckets) {
    estimate = max_;  // overflow bucket: the observed max is the best bound
  } else {
    // Geometric midpoint of (edge(b-1), edge(b)]: relative error <= g - 1.
    estimate = bucket_upper_edge(b - 1) * std::sqrt(options_.growth);
  }
  return std::clamp(estimate, min_, max_);
}

void Histogram::merge(const Histogram& other) {
  ISP_CHECK(options_.min_value == other.options_.min_value &&
                options_.growth == other.options_.growth &&
                options_.buckets == other.options_.buckets,
            "merging histograms with different bucket layouts");
  for (std::size_t i = other.lo_; i < other.hi_; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  lo_ = std::min(lo_, other.lo_);
  hi_ = std::max(hi_, other.hi_);
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

std::uint64_t Histogram::digest(std::uint64_t h) const {
  h = fnv1a(h, count_);
  h = fnv1a(h, double_bits(sum_));
  h = fnv1a(h, double_bits(min()));
  h = fnv1a(h, double_bits(max()));
  for (const auto c : buckets_) h = fnv1a(h, c);
  return h;
}

namespace {

/// Where the nearest-rank q-percentile of n > 0 values sits once sorted.
std::size_t nearest_rank_index(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::min(n - 1, rank == 0 ? 0 : rank - 1);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank_index(sorted.size(), q)];
}

double percentile_select(std::vector<double>& sample, double q) {
  if (sample.empty()) return 0.0;
  const auto nth = sample.begin() + static_cast<std::ptrdiff_t>(
                                        nearest_rank_index(sample.size(), q));
  std::nth_element(sample.begin(), nth, sample.end());
  return *nth;
}

// ---- Registry ------------------------------------------------------------

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      HistogramOptions options) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, Histogram(options)).first->second;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  const Counter* c = find_counter(name);
  return c ? c->value : 0;
}

void MetricsFold::apply() const {
  for (const auto& [target, source] : counters_) target->value += source->value;
  for (const auto& [target, source] : gauges_) target->set(source->value);
  for (const auto& [target, source] : histograms_) target->merge(*source);
}

MetricsFold MetricsRegistry::resolve_fold(const MetricsRegistry& other) {
  MetricsFold fold;
  fold.counters_.reserve(other.counters_.size());
  for (const auto& [name, c] : other.counters_) {
    fold.counters_.emplace_back(&counters_[name], &c);
  }
  for (const auto& [name, g] : other.gauges_) {
    if (g.set_ever) fold.gauges_.emplace_back(&gauges_[name], &g);
  }
  fold.histograms_.reserve(other.histograms_.size());
  for (const auto& [name, h] : other.histograms_) {
    fold.histograms_.emplace_back(&histogram(name, h.options()), &h);
  }
  return fold;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  resolve_fold(other).apply();
}

std::uint64_t MetricsRegistry::digest() const {
  std::uint64_t h = kFnvOffset;
  for (const auto& [name, c] : counters_) {
    h = fnv1a(h, name);
    h = fnv1a(h, c.value);
  }
  for (const auto& [name, g] : gauges_) {
    h = fnv1a(h, name);
    h = fnv1a(h, double_bits(g.set_ever ? g.value : 0.0));
  }
  for (const auto& [name, hist] : histograms_) {
    h = fnv1a(h, name);
    h = hist.digest(h);
  }
  return h;
}

std::string MetricsRegistry::to_json() const {
  std::string out;
  out.reserve(1024 + 128 * size());
  char buf[256];
  const auto add = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
  };
  out += "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    add("%s\n    \"%s\": %llu", first ? "" : ",", name.c_str(),
        static_cast<unsigned long long>(c.value));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    add("%s\n    \"%s\": %.9g", first ? "" : ",", name.c_str(),
        g.set_ever ? g.value : 0.0);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    add("%s\n    \"%s\": {\"count\": %llu, \"sum\": %.9g, \"min\": %.9g, "
        "\"max\": %.9g, \"mean\": %.9g, \"p50\": %.9g, \"p90\": %.9g, "
        "\"p99\": %.9g, \"buckets\": [",
        first ? "" : ",", name.c_str(),
        static_cast<unsigned long long>(h.count()), h.sum(), h.min(),
        h.max(), h.mean(), h.percentile(0.50), h.percentile(0.90),
        h.percentile(0.99));
    first = false;
    bool first_bucket = true;
    for (std::size_t i = 0; i < h.buckets().size(); ++i) {
      if (h.buckets()[i] == 0) continue;  // sparse: non-empty buckets only
      add("%s[%zu, %llu]", first_bucket ? "" : ", ", i,
          static_cast<unsigned long long>(h.buckets()[i]));
      first_bucket = false;
    }
    out += "]}";
  }
  out += first ? "},\n" : "\n  },\n";
  add("  \"digest\": \"0x%016llx\"\n}\n",
      static_cast<unsigned long long>(digest()));
  return out;
}

}  // namespace isp::obs
