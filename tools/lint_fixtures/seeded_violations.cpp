// Seeded analyzer fixture: one deliberate violation per rule.  Never
// compiled — the nsm_analyze_{raw_new,json_write,include}_fixture ctests
// each run one rule over this file and require a nonzero exit.
#include <mutex>
#include <mutex>   // include-hygiene: duplicate include
#include <thread>  // include-hygiene: <thread> without std::thread usage
#include <fstream>

#include "core/thread_annotations.hpp"
#include "mpimini/comm.hpp"

void RawNewViolation() {
  int* leak = new int[16];  // raw-new: allocation outside core/buffer.cpp
  delete[] leak;            // raw-new: matching raw delete
}

void CollectiveUnderLockViolation(core::Mutex& mutex, mpimini::Comm& comm) {
  core::MutexLock lock(mutex);
  comm.Barrier();  // blocking-under-lock: peer ranks deadlock on `mutex`
}

void BadSpanName() {
  instrument::Span span("BadName.NoCaps");  // registry: uppercase
  instrument::Span flat("nodots");          // registry: missing layer prefix
}

void BadMetricName(instrument::MetricsRegistry* metrics) {
  metrics->Set("sst queue depth", 1.0);  // registry: spaces, no dots
}

void UnsafeJsonWrite() {
  std::ofstream out("metrics.json");  // json-atomic-write: not AtomicFile
  out << "{}";
}
