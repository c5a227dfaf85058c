// Clock abstraction shared by everything that schedules against wall time:
// paced trace replay (pcap/replay.h) and the entrace_daemon event loop.
//
// Code that takes a Clock& is testable without sleeping: FakeClock::sleep
// advances a counter instantly, so pacing and timeout schedules can be
// unit-tested in microseconds while production code runs against the
// steady-clock-backed SystemClock.
#pragma once

namespace entrace::util {

// Monotonic seconds + sleep, virtual so tests can substitute a fake that
// advances instantly.  `now()` has an arbitrary epoch; only differences
// are meaningful.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual double now() = 0;
  virtual void sleep(double seconds) = 0;
};

// std::chrono::steady_clock-backed implementation used outside tests.
class SystemClock final : public Clock {
 public:
  double now() override;
  void sleep(double seconds) override;
};

// Test clock: now() is a plain counter and sleep() advances it without
// blocking, so retry/backoff and replay-pacing schedules can be unit-tested
// in microseconds.
class FakeClock final : public Clock {
 public:
  explicit FakeClock(double start = 0.0) : now_(start) {}
  double now() override { return now_; }
  void sleep(double seconds) override {
    if (seconds > 0) now_ += seconds;
  }
  void advance(double seconds) { now_ += seconds; }

 private:
  double now_;
};

}  // namespace entrace::util
