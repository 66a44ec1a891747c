#include "core/bridge.hpp"

#include "instrument/metrics.hpp"
#include "instrument/tracer.hpp"

namespace nek_sensei {

Bridge::Bridge(
    nekrs::FlowSolver& solver, const std::string& sensei_xml,
    const std::function<void(sensei::ConfigurableAnalysis&)>& customize)
    : solver_(solver),
      pipeline_config_(
          sensei::ParsePipelineConfig(xmlcfg::Parse(sensei_xml).root)),
      // Split is collective over the stepping communicator; every rank
      // reaches this constructor with the same XML, so the async decision
      // is globally consistent.  Key = rank keeps the numbering identical,
      // which keeps every per-rank output filename identical to sync mode.
      analysis_comm_(pipeline_config_.async
                         ? solver.Comm().Split(0, solver.Comm().Rank())
                         : solver.Comm()),
      analysis_(analysis_comm_) {
  data_.Initialize(&solver_);
  if (customize) customize(analysis_);
  analysis_.Initialize(xmlcfg::Parse(sensei_xml).root);
  if (pipeline_config_.async) {
    pipeline_ = std::make_unique<AsyncPipeline>(
        solver_, analysis_, data_, analysis_comm_, pipeline_config_.depth);
  }
}

bool Bridge::Update() {
  if (pipeline_) {
    // The rank-thread cost of async mode is capture + enqueue, traced as
    // async.submit inside the pipeline; bridge.update_seconds is recorded
    // by the worker so the metric keeps meaning "time inside SENSEI".
    return pipeline_->Submit(solver_.StepNumber(), solver_.Time());
  }
  instrument::Span span("bridge.update");
  instrument::MetricsRegistry* metrics = instrument::CurrentMetrics();
  const std::int64_t begin_ns =
      metrics != nullptr ? instrument::Tracer::NowNs() : 0;
  data_.SetPipelineTime(solver_.StepNumber(), solver_.Time());
  const bool ok = analysis_.Execute(data_);
  if (metrics != nullptr) {
    // bridge.update_seconds / solver.step_seconds is the bridge-level
    // in-situ share: the fraction of the run spent inside SENSEI.
    metrics->Add("bridge.update_seconds",
                 static_cast<double>(instrument::Tracer::NowNs() - begin_ns) *
                     1e-9);
    metrics->Add("bridge.updates", 1.0);
  }
  return ok;
}

void Bridge::Finalize() {
  if (finalized_) return;
  if (pipeline_) {
    // Drains the queue, runs analysis_.Finalize() as the last worker job,
    // joins, and folds the worker's metrics/stats into this rank.
    pipeline_->Shutdown();
  } else {
    analysis_.Finalize();
  }
  finalized_ = true;
  instrument::PrintTracerSummary();
}

}  // namespace nek_sensei
