// Wall-clock and per-rank busy-time measurement.
//
// The reproduction runs "MPI ranks" as threads on a single core, so
// wall-clock time of a whole run serializes all ranks.  The figures in the
// paper plot per-rank (per-node) quantities, so each rank thread carries a
// BusyClock that accumulates only the time this rank actually spent working.
// See DESIGN.md §5 for the methodology discussion.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace instrument {

/// Monotonic wall-clock stopwatch.
///
/// Starts running on construction; `Elapsed()` may be called repeatedly,
/// `Restart()` resets the origin.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Seconds elapsed since construction or the last Restart().
  [[nodiscard]] double Elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  void Restart() { start_ = Clock::now(); }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates the active ("busy") time of one rank thread, measured on the
/// thread's CPU-time clock (CLOCK_THREAD_CPUTIME_ID).
///
/// Using per-thread CPU time rather than wall time is essential here: rank
/// "processes" are threads sharing one core, so wall time between two
/// points includes slices spent running *other* ranks.  CPU time counts
/// only cycles this rank actually consumed — the per-node quantity the
/// paper's scaling figures plot.  Blocking waits (condition variables)
/// consume no CPU, but mpimini still brackets them with Pause()/Resume()
/// so the accounting stays explicit.
///
/// Resume(), Pause(), and Seconds() while running must be called from the
/// owning thread (the CPU-time clock is per calling thread); once paused,
/// Seconds() may be read from anywhere (the runtime reads it after join).
class BusyClock {
 public:
  /// Begin accumulating. No-op if already running.
  void Resume() {
    if (running_) return;
    running_ = true;
    resume_at_ = ThreadCpuSeconds();
  }

  /// Stop accumulating. No-op if not running.
  void Pause() {
    if (!running_) return;
    accum_ += ThreadCpuSeconds() - resume_at_;
    running_ = false;
  }

  /// Total busy CPU seconds accumulated so far (includes the open section
  /// when called from the owning thread).
  [[nodiscard]] double Seconds() const {
    double s = accum_;
    if (running_) s += ThreadCpuSeconds() - resume_at_;
    return s;
  }

  void Reset() {
    accum_ = 0.0;
    if (running_) resume_at_ = ThreadCpuSeconds();
  }

  /// CPU seconds consumed by the calling thread.
  static double ThreadCpuSeconds();

 private:
  double accum_ = 0.0;
  bool running_ = false;
  double resume_at_ = 0.0;
};

/// Running univariate statistics (Welford).
class RunningStats {
 public:
  void Add(double x) {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    if (x < min_ || n_ == 1) min_ = x;
    if (x > max_ || n_ == 1) max_ = x;
  }

  [[nodiscard]] std::uint64_t Count() const { return n_; }
  [[nodiscard]] double Mean() const { return mean_; }
  [[nodiscard]] double Min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double Max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double Variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double StdDev() const;

  /// Fold another accumulator into this one (Chan et al. parallel update),
  /// as if every sample of `other` had been Add()ed here.
  void Merge(const RunningStats& other);

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Nearest-rank percentile of a **sorted** ascending sample
/// (q in [0, 1]; q=0.5 is the median).  Returns 0 for an empty sample.
[[nodiscard]] double Percentile(const std::vector<double>& sorted, double q);

}  // namespace instrument
