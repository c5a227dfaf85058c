// In-memory span log for the traced run.
//
// Spans are recorded only on the benchmark's own thread, around its calls
// into the library's public functions, so they nest strictly: a span's
// children lie inside it and never overlap each other.  A span's self time
// is therefore its duration minus the summed durations of its children.
// Recording is a push onto a vector; the log is written out once, at exit.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Seconds on the steady clock since the process started measuring.
double now_s();

struct Span {
  const char* name = "";  // a string literal: recording never allocates a name
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index into the log, -1 for a pass root
  int pass = -1;
};

class SpanLog {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_pass(int pass) { pass_ = pass; }

  // Opens a span under the innermost open one; -1 when disabled.
  int begin(const char* name);
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }

  // Self seconds of every span (duration minus its children's durations).
  std::vector<double> self_seconds() const;

  // Per-pass sums of self seconds by span name: result[pass][name].
  std::map<int, std::map<std::string, double>> self_by_pass() const;

  // One line per span: id, parent, workload, pass, name, start, end, self.
  void write_tsv(const std::string& path, const std::string& workload) const;

 private:
  bool enabled_ = false;
  int pass_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; records nothing when the log is disabled.
class Scope {
 public:
  Scope(SpanLog& log, const char* name) : log_(log), id_(log.begin(name)) {}
  ~Scope() { log_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

}  // namespace perfbench
