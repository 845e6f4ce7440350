#include "ir/program.hpp"

#include <algorithm>
#include <cstring>
#include <set>
#include <utility>

#include "common/error.hpp"

namespace isp::ir {

mem::DataObject& ObjectStore::at(const std::string& name) {
  const auto it = objects_.find(name);
  ISP_CHECK(it != objects_.end(), "unknown object '" << name << "'");
  return it->second;
}

const mem::DataObject& ObjectStore::at(const std::string& name) const {
  const auto it = objects_.find(name);
  ISP_CHECK(it != objects_.end(), "unknown object '" << name << "'");
  return it->second;
}

mem::DataObject& ObjectStore::emplace(mem::DataObject object) {
  const auto name = object.name;
  auto [it, inserted] = objects_.insert_or_assign(name, std::move(object));
  return it->second;
}

mem::DataObject& ObjectStore::ensure(const std::string& name) {
  const auto it = objects_.find(name);
  if (it != objects_.end()) return it->second;
  mem::DataObject fresh;
  fresh.name = name;
  return objects_.emplace(name, std::move(fresh)).first->second;
}

bool ObjectStore::contains(const std::string& name) const {
  return objects_.find(name) != objects_.end();
}

const mem::DataObject& KernelCtx::input(std::size_t i) const {
  ISP_CHECK(i < inputs_->size(), "input index out of range");
  return store_->at((*inputs_)[i]);
}

mem::DataObject& KernelCtx::output(std::size_t i) {
  ISP_CHECK(i < outputs_->size(), "output index out of range");
  return store_->ensure((*outputs_)[i]);
}

Program::Program(std::string name, double virtual_scale)
    : name_(std::move(name)), virtual_scale_(virtual_scale) {
  ISP_CHECK(virtual_scale_ >= 1.0, "virtual scale must be >= 1");
}

CodeRegion& Program::add_line(CodeRegion line) {
  ISP_CHECK(!line.name.empty(), "line needs a name");
  ISP_CHECK(line.elem_bytes > 0.0, "elem_bytes must be positive");
  ISP_CHECK(line.chunks >= 1, "line needs at least one progress chunk");
  // Key the jitter stream by position so every line perturbs independently.
  if (line.cost.jitter_seed == 0) {
    line.cost.jitter_seed = splitmix64(lines_.size() + 1);
  }
  lines_.push_back(std::move(line));
  return lines_.back();
}

CodeRegion& Program::line_mut(std::size_t i) {
  ISP_CHECK(i < lines_.size(), "line index out of range");
  return lines_[i];
}

Dataset& Program::add_dataset(Dataset dataset) {
  ISP_CHECK(!dataset.object.name.empty(), "dataset object needs a name");
  ISP_CHECK(dataset.elem_bytes > 0, "dataset elem_bytes must be positive");
  datasets_.push_back(std::move(dataset));
  return datasets_.back();
}

Bytes Program::total_storage_bytes() const {
  Bytes total{0};
  for (const auto& d : datasets_) {
    if (d.object.starts_on_storage()) total += d.object.virtual_bytes;
  }
  return total;
}

ObjectStore Program::make_store() const {
  ObjectStore store;
  for (const auto& d : datasets_) store.emplace(d.object);
  return store;
}

ObjectStore Program::make_metadata_store() const {
  ObjectStore store;
  for (const auto& d : datasets_) {
    mem::DataObject meta;
    meta.name = d.object.name;
    meta.location = d.object.location;
    meta.virtual_bytes = d.object.virtual_bytes;
    meta.bar_remote = d.object.bar_remote;
    store.emplace(std::move(meta));
  }
  return store;
}

ObjectStore Program::make_sampled_store(double fraction) const {
  ISP_CHECK(fraction > 0.0 && fraction <= 1.0,
            "sample fraction out of (0,1]: " << fraction);
  ObjectStore store;
  for (const auto& d : datasets_) {
    if (d.sampler) {
      store.emplace(d.sampler(d.object, fraction));
    } else {
      store.emplace(prefix_sample(d.object, fraction, d.elem_bytes));
    }
  }
  return store;
}

void Program::validate() const {
  std::set<std::string> known;
  for (const auto& d : datasets_) {
    const auto [it, inserted] = known.insert(d.object.name);
    ISP_CHECK(inserted, "duplicate dataset '" << d.object.name << "'");
  }
  std::set<std::string> line_names;
  for (const auto& line : lines_) {
    const auto [it, inserted] = line_names.insert(line.name);
    ISP_CHECK(inserted, "duplicate line name '" << line.name << "'");
    for (const auto& in : line.inputs) {
      ISP_CHECK(known.count(in) == 1, "line '" << line.name << "' consumes '"
                                               << in
                                               << "' before it is produced");
    }
    for (const auto& out : line.outputs) {
      const bool fresh = known.insert(out).second;
      ISP_CHECK(fresh, "object '" << out << "' produced twice (line '"
                                  << line.name << "')");
    }
  }
}

mem::DataObject prefix_sample(const mem::DataObject& full, double fraction,
                              std::uint32_t elem_bytes) {
  ISP_CHECK(elem_bytes > 0, "elem_bytes must be positive");
  mem::DataObject out;
  out.name = full.name;
  out.location = full.location;
  out.virtual_bytes = scale(full.virtual_bytes, fraction);

  const std::size_t total_elems = full.physical.size_bytes() / elem_bytes;
  std::size_t keep = static_cast<std::size_t>(
      static_cast<double>(total_elems) * fraction + 0.5);
  keep = std::max<std::size_t>(keep, std::min<std::size_t>(total_elems, 1));

  out.physical.resize_elems<std::byte>(keep * elem_bytes);
  if (keep > 0 && !full.physical.empty()) {
    auto dst = out.physical.as<std::byte>();
    auto src = full.physical.as<std::byte>();
    std::memcpy(dst.data(), src.data(), keep * elem_bytes);
  }
  return out;
}

}  // namespace isp::ir
