// Deterministic metrics: named counters, gauges and log-bucketed latency
// histograms behind one registry.
//
// The serving layer's partitioning decisions (and every SLO argument built
// on top of them) are only as good as the runtime measurements feeding them
// — §III of the paper makes continuous monitoring a first-class input to
// Equation 1.  This registry is the fleet-wide collection point: every
// subsystem (engine, monitor, FTL, fault injector, admission control)
// reports through it, and the whole structure is *deterministic* — metric
// names iterate in sorted order, merge() is associative, and digest() is an
// FNV-1a fold over every name and value, so two runs (or a `--jobs 1` and a
// `--jobs 8` run whose registries are merged in submission order) must agree
// byte for byte.
//
// Instrumentation never charges virtual time: recording into a registry is
// bookkeeping only, and a run with a registry attached is bit-for-bit
// identical (same report digest) to the same run without one.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/digest.hpp"
#include "common/units.hpp"

namespace isp::obs {

// ---- FNV-1a (the repository's digest convention, PR 2) -------------------
//
// The implementation now lives in common/digest.hpp, shared with the
// recovery sweep and the serving layer; the obs call sites keep their
// unqualified names.

using isp::double_bits;
using isp::fnv1a;
using isp::kFnvOffset;
using isp::kFnvPrime;

// ---- Scalar metrics ------------------------------------------------------

/// A monotonically increasing count.  merge() adds.
struct Counter {
  std::uint64_t value = 0;

  void add(std::uint64_t delta = 1) { value += delta; }
};

/// A last-known level.  merge() keeps the maximum — the only combining rule
/// that is associative and commutative without a timestamp, and the one that
/// matters for capacity questions ("how deep did the queue get?").
struct Gauge {
  double value = 0.0;
  bool set_ever = false;

  void set(double v) {
    value = set_ever ? std::max(value, v) : v;
    set_ever = true;
  }
};

// ---- Log-bucketed histogram ----------------------------------------------

/// Bucket layout: geometric, fixed at construction.  Bucket 0 holds
/// [0, min_value]; bucket i holds (min_value·g^(i-1), min_value·g^i]; one
/// overflow bucket catches everything beyond bucket_count regular buckets.
/// With growth factor g every percentile read off the bucket edges is within
/// a relative error of (g − 1) of the exact order statistic (tested against
/// an exact sort in obs_test).
struct HistogramOptions {
  double min_value = 1e-9;   // upper edge of bucket 0
  double growth = 1.25;      // geometric bucket growth factor, > 1
  std::uint32_t buckets = 128;  // regular buckets (plus 1 overflow)
};

class Histogram {
 public:
  Histogram() : Histogram(HistogramOptions{}) {}
  explicit Histogram(HistogramOptions options);

  /// Record one observation.  Negative values clamp into bucket 0 (they can
  /// only arise from floating-point cancellation upstream) but still count;
  /// +infinity lands in the overflow bucket and NaN in bucket 1.
  void record(double v);
  void record(Seconds s) { record(s.value()); }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Nearest-rank percentile (q in [0, 1]) read off the bucket edges: the
  /// geometric midpoint of the bucket holding the ceil(q·count)-th
  /// observation, clamped to the observed [min, max].  Relative error vs the
  /// exact order statistic is bounded by (growth − 1); exact for bucket 0
  /// and the overflow bucket (clamped to min/max).  Returns 0 when empty.
  [[nodiscard]] double percentile(double q) const;

  /// Fold `other` in: element-wise bucket adds, count/sum adds, min/max
  /// combines.  Associative and commutative on every integer field; sums
  /// combine in floating point.  Bucket layouts must match (ISP_CHECK).
  /// Costs the width of `other`'s occupied bucket range, not the layout.
  void merge(const Histogram& other);

  [[nodiscard]] const HistogramOptions& options() const { return options_; }
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const {
    return buckets_;
  }
  /// Inclusive upper edge of bucket i (infinity for the overflow bucket):
  /// min_value·growth^i, tabulated once at construction.
  [[nodiscard]] double bucket_upper_edge(std::size_t i) const;
  /// Index of the bucket a value lands in: the first bucket whose upper
  /// edge is at or above `v` (std::lower_bound's answer), found by a
  /// logarithmic guess and a step or two over the edge table.
  [[nodiscard]] std::size_t bucket_index(double v) const;

  [[nodiscard]] std::uint64_t digest(std::uint64_t h = kFnvOffset) const;

 private:
  HistogramOptions options_;
  std::vector<double> edges_;           // upper edges of the regular buckets
  double inv_log_growth_ = 0.0;         // 1 / log(growth)
  std::vector<std::uint64_t> buckets_;  // buckets + 1 overflow
  // Every non-zero bucket lies in [lo_, hi_); empty is lo_ > hi_.
  std::size_t lo_ = 0;
  std::size_t hi_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact nearest-rank percentile over an already-sorted sample: the
/// ceil(q·n)-th smallest value (clamped to the ends).  Shared by the serving
/// report (which previously hand-rolled this taking the vector *by value* —
/// a full copy per call) and the histogram cross-check tests.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double q);

/// percentile_sorted()'s value without a full sort: std::nth_element moves
/// the same order statistic into place, so `sample` comes back partially
/// reordered.  O(n) per call.
[[nodiscard]] double percentile_select(std::vector<double>& sample, double q);

// ---- Registry ------------------------------------------------------------

/// One source registry's merge into one target registry with every target
/// metric already looked up (MetricsRegistry::resolve_fold).  apply() does
/// exactly what MetricsRegistry::merge(source) does — the same counter
/// adds, gauge sets and histogram merges, in the same order — without a
/// single name lookup, so a source folded many times pays for its names
/// once.  Registry map nodes never move and nothing is ever erased, so the
/// fold stays valid while both registries live and the source gains no
/// new name or newly set gauge.
class MetricsFold {
 public:
  void apply() const;

 private:
  friend class MetricsRegistry;
  std::vector<std::pair<Counter*, const Counter*>> counters_;
  std::vector<std::pair<Gauge*, const Gauge*>> gauges_;  // set gauges only
  std::vector<std::pair<Histogram*, const Histogram*>> histograms_;
};

/// Named metrics behind sorted maps: iteration order — and therefore
/// to_json() and digest() — depends only on the names and values, never on
/// insertion order or thread scheduling.
class MetricsRegistry {
 public:
  /// Find-or-create.  A histogram's bucket layout is fixed by the options of
  /// the first call; later calls ignore their options argument.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       HistogramOptions options = {});

  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;

  [[nodiscard]] bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }
  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Fold `other` in (counters add, gauges max, histograms merge).
  /// Associative, so per-job registries folded in submission order equal one
  /// registry fed serially.  resolve_fold(other).apply().
  void merge(const MetricsRegistry& other);

  /// Find-or-create every metric merge(other) would touch and return the
  /// fold that applies `other` to them (see MetricsFold).  Creating the
  /// targets is the only change to this registry until apply().
  [[nodiscard]] MetricsFold resolve_fold(const MetricsRegistry& other);

  /// FNV-1a over every name and value, in sorted-name order.
  [[nodiscard]] std::uint64_t digest() const;

  /// Deterministic JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {...}, "digest": "0x..."} with sorted keys and fixed
  /// numeric formatting — byte-identical for equal contents.
  [[nodiscard]] std::string to_json() const;

  [[nodiscard]] const std::map<std::string, Counter>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace isp::obs
