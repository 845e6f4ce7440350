#include "trace.hpp"

#include <cstdio>
#include <cstring>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::uint32_t Tracer::intern(const char* name) {
  // Span names are string literals: compare pointers first, text second.
  for (std::uint32_t i = 0; i < literals_.size(); ++i) {
    if (literals_[i] == name) return i;
  }
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (std::strcmp(names_[i].c_str(), name) == 0) return i;
  }
  names_.emplace_back(name);
  literals_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::size_t Tracer::begin(const char* name) {
  Span span;
  span.name = intern(name);
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.iteration = iteration_;
  const std::size_t index = spans_.size();
  spans_.push_back(span);
  open_.push_back(index);
  spans_[index].start = now_ns();
  return index;
}

void Tracer::end(std::size_t span) {
  spans_[span].end = now_ns();
  open_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end - spans_[i].start;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end - spans_[i].start;
    }
  }
  std::map<std::string, double> out;
  for (const auto& name : names_) out[name] = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[names_[spans_[i].name]] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"columns\": [\"name\", \"start_ns\", \"end_ns\", "
                  "\"parent\", \"iteration\"],\n\"names\": [");
  for (std::size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", names_[i].c_str());
  }
  std::fprintf(f, "],\n\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f, "[%u,%lld,%lld,%lld,%llu]%s\n", s.name,
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.end),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.iteration),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
