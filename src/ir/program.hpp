// Program representation: an ordered list of "lines".
//
// ActivePy's unit of analysis, placement and migration is one line of the
// interpreted program — a single-entry-single-exit code region (§III-B).  A
// CodeRegion here carries everything the runtime needs about a line:
//   * dataflow (named inputs/outputs against an ObjectStore),
//   * a real C++ kernel computing the physical payload,
//   * the analytic compute-cost law standing in for the physical machine,
//   * placement-relevant structure (parallelism on each side, progress
//     granularity for status updates).
//
// A Program is immutable during execution; every run owns its own
// ObjectStore so the exhaustive oracle can replay thousands of placements.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ir/cost_model.hpp"
#include "mem/data_object.hpp"

namespace isp::ir {

/// Live values during one run, keyed by object name.
class ObjectStore {
 public:
  mem::DataObject& at(const std::string& name);
  const mem::DataObject& at(const std::string& name) const;
  mem::DataObject& emplace(mem::DataObject object);
  /// The named object, created empty if missing: how a kernel's first write
  /// to an output brings it into being.
  mem::DataObject& ensure(const std::string& name);
  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] std::size_t size() const { return objects_.size(); }

 private:
  std::map<std::string, mem::DataObject> objects_;
};

/// Kernel execution context: typed access to the line's operands.
class KernelCtx {
 public:
  KernelCtx(ObjectStore& store, const std::vector<std::string>& inputs,
            const std::vector<std::string>& outputs, double virtual_scale)
      : store_(&store),
        inputs_(&inputs),
        outputs_(&outputs),
        virtual_scale_(virtual_scale) {}

  [[nodiscard]] const mem::DataObject& input(std::size_t i) const;
  [[nodiscard]] mem::DataObject& output(std::size_t i);
  [[nodiscard]] std::size_t input_count() const { return inputs_->size(); }
  [[nodiscard]] std::size_t output_count() const { return outputs_->size(); }
  /// Virtual bytes per physical byte (for kernels sizing virtual outputs).
  [[nodiscard]] double virtual_scale() const { return virtual_scale_; }

 private:
  ObjectStore* store_;
  const std::vector<std::string>* inputs_;
  const std::vector<std::string>* outputs_;
  double virtual_scale_;
};

using Kernel = std::function<void(KernelCtx&)>;

/// One line of the program: a single-entry-single-exit code region.
struct CodeRegion {
  std::string name;  // the "source line" as shown in reports
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  CostModel cost;
  /// Bytes per element of the dominant input, converting input volume into
  /// the n of the cost law.
  double elem_bytes = 1.0;
  /// Threads the reference C implementation uses on the host (reference
  /// kernels are typically single-threaded loops).
  std::uint32_t host_threads = 1;
  /// CSE cores the generated firmware spreads this line across.
  std::uint32_t csd_threads = 8;
  /// Progress chunks per line: each chunk ends with a patched status update.
  std::uint32_t chunks = 16;
  /// Outputs are persisted to flash (result write-back): the engine charges
  /// the NAND program path on the CSD, or link + NAND when running on the
  /// host.
  bool writes_storage = false;
  /// May be empty for timing-only modelling.  The engine then sizes the
  /// line's outputs from the plan's estimates, so such a line needs a plan
  /// that carries them (Engine::run rejects one that does not).
  Kernel kernel;

  [[nodiscard]] double elems_for(Bytes input_virtual) const {
    return input_virtual.as_double() / elem_bytes;
  }
};

/// The synced virtual size of every output a run produced, line by line:
/// `sizes[i][k]` is line i's k-th output.  Kernels are pure functions of the
/// datasets, so a kernel run records the sizes once and every later run of
/// the same program can replay them (EngineOptions::output_sizes).
using OutputSizes = std::vector<std::vector<Bytes>>;

/// An initial value of the program (usually a referenced file on storage).
struct Dataset {
  mem::DataObject object;
  std::uint32_t elem_bytes = 1;
  /// Optional custom sampler for the sampling phase; the default takes the
  /// leading `fraction` of elements (the paper's heuristic subset).
  std::function<mem::DataObject(const mem::DataObject& full, double fraction)>
      sampler;
};

class Program {
 public:
  Program(std::string name, double virtual_scale);

  [[nodiscard]] const std::string& name() const { return name_; }
  /// Virtual bytes represented by one physical byte (e.g. 1024 when the
  /// physical payload is a 2^-10 scale model of the Table-I dataset).
  [[nodiscard]] double virtual_scale() const { return virtual_scale_; }

  CodeRegion& add_line(CodeRegion line);
  Dataset& add_dataset(Dataset dataset);

  [[nodiscard]] const std::vector<CodeRegion>& lines() const { return lines_; }
  /// Mutable access for experiment harnesses that perturb cost models (e.g.
  /// injecting the §II-B(3) input-change dynamic into a stock workload).
  [[nodiscard]] CodeRegion& line_mut(std::size_t i);
  [[nodiscard]] const std::vector<Dataset>& datasets() const {
    return datasets_;
  }
  [[nodiscard]] std::size_t line_count() const { return lines_.size(); }

  /// Raw input volume: the Table-I "data size" of the program.
  [[nodiscard]] Bytes total_storage_bytes() const;

  /// Fresh store populated with (copies of) the initial datasets.
  [[nodiscard]] ObjectStore make_store() const;

  /// Fresh store holding the datasets' metadata (name, location, virtual
  /// size) without their payloads: enough for a run that calls no kernel.
  [[nodiscard]] ObjectStore make_metadata_store() const;

  /// Store populated with sampled datasets scaled by `fraction` (§III-A).
  [[nodiscard]] ObjectStore make_sampled_store(double fraction) const;

  /// Structural checks: inputs resolve to a dataset or an earlier line's
  /// output, no output name is produced twice, line names unique.
  void validate() const;

 private:
  std::string name_;
  double virtual_scale_;
  std::vector<CodeRegion> lines_;
  std::vector<Dataset> datasets_;
};

/// Default sampler: keep the first ceil(fraction * n_elems) elements.
[[nodiscard]] mem::DataObject prefix_sample(const mem::DataObject& full,
                                            double fraction,
                                            std::uint32_t elem_bytes);

}  // namespace isp::ir
