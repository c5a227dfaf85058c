#include "spans.h"

#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin).count();
}

int SpanLog::begin(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.pass = pass_;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(s);
  open_.push_back(id);
  spans_.back().start = now_s();
  return id;
}

void SpanLog::end(int id) {
  if (id < 0) return;
  const double t = now_s();
  if (open_.empty() || open_.back() != id) throw std::logic_error("span closed out of order");
  spans_[static_cast<std::size_t>(id)].end = t;
  open_.pop_back();
}

std::vector<double> SpanLog::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].end - spans_[i].start;
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  }
  return self;
}

std::map<int, std::map<std::string, double>> SpanLog::self_by_pass() const {
  const std::vector<double> self = self_seconds();
  std::map<int, std::map<std::string, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].pass][spans_[i].name] += self[i];
  return out;
}

void SpanLog::write_tsv(const std::string& path, const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const std::vector<double> self = self_seconds();
  std::fprintf(f, "id\tparent\tworkload\tpass\tname\tstart_s\tend_s\tself_s\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%d\t%s\t%d\t%s\t%.9f\t%.9f\t%.9f\n", i, s.parent, workload.c_str(),
                 s.pass, s.name, s.start, s.end, self[i]);
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
