#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "core/bridge.hpp"
#include "core/heartbeat.hpp"
#include "sensei/catalyst_adaptor.hpp"
#include "sensei/checkpoint_adaptor.hpp"
#include "core/nek_data_adaptor.hpp"
#include "core/workflows.hpp"
#include "instrument/flight_recorder.hpp"
#include "mpimini/runtime.hpp"
#include "nekrs/cases.hpp"

namespace {

using mpimini::Comm;
using mpimini::Runtime;
using nek_sensei::Bridge;
using nek_sensei::NekDataAdaptor;

std::string TempSubdir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "/core_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

nekrs::FlowConfig SmallCase() {
  nekrs::cases::TaylorGreenOptions options;
  options.elements = {2, 2, 2};
  options.order = 3;
  return nekrs::cases::TaylorGreenCase(options);
}

// ---- NekDataAdaptor ---------------------------------------------------------

TEST(NekDataAdaptorTest, MeshTessellatesElements) {
  Runtime::Run(2, [](Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::FlowSolver solver(comm, device, SmallCase());
    NekDataAdaptor adaptor;
    adaptor.Initialize(&solver);

    EXPECT_EQ(adaptor.GetNumberOfMeshes(), 1);
    auto mesh = adaptor.GetMesh(0);
    // 4 local elements (2x2x1 layers per rank), (3+1)^3 points each,
    // 3^3 sub-hexes each.
    EXPECT_EQ(mesh->NumPoints(), 4u * 64u);
    EXPECT_EQ(mesh->NumCells(), 4u * 27u);
    // Cached until release.
    EXPECT_EQ(adaptor.GetMesh(0).get(), mesh.get());
    adaptor.ReleaseData();
    EXPECT_NE(adaptor.GetMesh(0).get(), mesh.get());
  });
}

TEST(NekDataAdaptorTest, MetadataAdvertisesSolverArrays) {
  Runtime::Run(1, [](Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::cases::RayleighBenardOptions options;
    options.elements = {2, 2, 2};
    options.order = 3;
    nekrs::FlowSolver solver(comm, device,
                             nekrs::cases::RayleighBenardCase(options));
    NekDataAdaptor adaptor;
    adaptor.Initialize(&solver);
    auto md = adaptor.GetMeshMetadata(0);
    ASSERT_EQ(md.arrays.size(), 3u);  // velocity, pressure, temperature
    EXPECT_EQ(md.arrays[0].name, "velocity");
    EXPECT_EQ(md.arrays[0].components, 3);
    EXPECT_DOUBLE_EQ(md.global_bounds[1], 3.0);  // aspect 3 in x
  });
}

TEST(NekDataAdaptorTest, AddArrayCopiesDeviceToHostStaging) {
  Runtime::Run(1, [](Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::FlowSolver solver(comm, device, SmallCase());
    NekDataAdaptor adaptor;
    adaptor.Initialize(&solver);
    auto mesh = adaptor.GetMesh(0);

    const auto d2h_before = device.Transfers().d2h_count;
    core::ResetLocalBufferStats();
    ASSERT_TRUE(adaptor.AddArray(*mesh, "velocity", svtk::Centering::kPoint));
    // The three components are interleaved on the device (pack_vector3
    // kernel) and staged with a single device->host copy; the host side
    // adopts that buffer outright — zero host-to-host full-field copies.
    EXPECT_EQ(device.Transfers().d2h_count, d2h_before + 1);
    EXPECT_GE(device.Kernels().count("pack_vector3"), 1u);
    EXPECT_EQ(core::LocalBufferStats().full_copies, 0u);
    EXPECT_EQ(core::LocalBufferStats().device_stages, 1u);
    EXPECT_GE(core::LocalBufferStats().adoptions, 1u);
    EXPECT_GT(adaptor.StagingBytes(), 0u);

    // Values match the Taylor-Green initial condition at the nodes.
    const svtk::DataArray* v = mesh->PointArray("velocity");
    ASSERT_NE(v, nullptr);
    auto p = mesh->GetPoint(0);
    EXPECT_NEAR(v->At(0, 0), std::sin(p[0]) * std::cos(p[1]), 1e-12);

    adaptor.ReleaseData();
    EXPECT_EQ(adaptor.StagingBytes(), 0u);
  });
}

TEST(NekDataAdaptorTest, CatalystStepStaysUnderTwoFullFieldCopies) {
  // The tentpole invariant of the unified data plane: one instrumented in
  // situ Catalyst step (mesh + velocity + full render Execute) performs at
  // most 2 full-field host copies.  The seed performed >= 4 (three D2H
  // stagings re-copied into the VTK array plus per-layer repacks).
  const std::string dir = TempSubdir("copycount");
  Runtime::Run(1, [&](Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::FlowSolver solver(comm, device, SmallCase());
    NekDataAdaptor data;
    data.Initialize(&solver);

    sensei::CatalystOptions options;
    options.width = 48;
    options.height = 32;
    options.output_dir = dir;
    sensei::CatalystView view;
    view.array = "velocity";
    view.color_by_magnitude = true;
    options.views.push_back(view);
    sensei::CatalystAnalysisAdaptor catalyst(options);

    for (int step = 1; step <= 2; ++step) {
      solver.Step();
      data.SetPipelineTime(step, solver.Time());
      core::ResetLocalBufferStats();
      ASSERT_TRUE(catalyst.Execute(data));
      EXPECT_LE(core::LocalBufferStats().full_copies, 2u);
      EXPECT_EQ(core::LocalBufferStats().device_stages, 1u);
      data.ReleaseData();
    }
  });
}

TEST(NekDataAdaptorTest, UnknownArrayRejected) {
  Runtime::Run(1, [](Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::FlowSolver solver(comm, device, SmallCase());  // no temperature
    NekDataAdaptor adaptor;
    adaptor.Initialize(&solver);
    auto mesh = adaptor.GetMesh(0);
    EXPECT_FALSE(adaptor.AddArray(*mesh, "enstrophy", svtk::Centering::kPoint));
    EXPECT_FALSE(
        adaptor.AddArray(*mesh, "temperature", svtk::Centering::kPoint));
    EXPECT_FALSE(adaptor.AddArray(*mesh, "velocity", svtk::Centering::kCell));
  });
}

// ---- Bridge -----------------------------------------------------------------

TEST(BridgeTest, UpdateTriggersAtConfiguredFrequency) {
  const std::string dir = TempSubdir("bridge");
  Runtime::Run(1, [&](Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::FlowSolver solver(comm, device, SmallCase());
    Bridge bridge(solver,
                  "<sensei><analysis type=\"checkpoint\" frequency=\"5\" "
                  "output=\"" + dir + "\"/></sensei>");
    for (int s = 0; s < 10; ++s) {
      solver.Step();
      ASSERT_TRUE(bridge.Update());
    }
    bridge.Finalize();
    auto checkpoint =
        std::dynamic_pointer_cast<sensei::CheckpointAnalysisAdaptor>(
            bridge.Analysis().Find("checkpoint"));
    EXPECT_EQ(checkpoint->FilesWritten(), 2u);  // steps 5 and 10
  });
}

// ---- Workflows --------------------------------------------------------------

TEST(WorkflowTest, InSituOriginalRunsWithoutSensei) {
  nek_sensei::InSituOptions options;
  options.flow = SmallCase();
  options.steps = 3;
  options.use_sensei = false;
  auto metrics = nek_sensei::RunInSitu(2, options);
  ASSERT_EQ(metrics.ranks.size(), 2u);
  EXPECT_EQ(metrics.bytes_written, 0u);
  EXPECT_EQ(metrics.images_written, 0u);
  EXPECT_GT(metrics.MeanSimStepSeconds(), 0.0);
  EXPECT_GT(metrics.MaxSimDevicePeakBytes(), 0u);
}

TEST(WorkflowTest, InSituCatalystWritesImagesAndUsesMoreHostMemory) {
  const std::string dir = TempSubdir("wf_cat");
  nek_sensei::InSituOptions original;
  original.flow = SmallCase();
  original.steps = 4;
  original.use_sensei = false;

  nek_sensei::InSituOptions catalyst = original;
  catalyst.use_sensei = true;
  catalyst.sensei_xml =
      "<sensei><analysis type=\"catalyst\" frequency=\"2\" output=\"" + dir +
      "\" array=\"velocity\" magnitude=\"1\" width=\"64\" height=\"48\"/>"
      "</sensei>";

  auto base = nek_sensei::RunInSitu(2, original);
  auto rendered = nek_sensei::RunInSitu(2, catalyst);
  EXPECT_EQ(rendered.images_written, 2u);  // steps 2 and 4
  EXPECT_GT(rendered.bytes_written, 0u);
  // Catalyst stages device data on the host: CPU footprint must exceed the
  // no-SENSEI baseline (Fig 3's mechanism).
  EXPECT_GT(rendered.MaxSimHostPeakBytes(), base.MaxSimHostPeakBytes());
}

TEST(WorkflowTest, InSituCheckpointWritesFiles) {
  const std::string dir = TempSubdir("wf_chk");
  nek_sensei::InSituOptions options;
  options.flow = SmallCase();
  options.steps = 4;
  options.sensei_xml =
      "<sensei><analysis type=\"checkpoint\" frequency=\"2\" output=\"" +
      dir + "\"/></sensei>";
  auto metrics = nek_sensei::RunInSitu(2, options);
  EXPECT_GT(metrics.bytes_written, 0u);
  // 2 ranks x 2 triggers VTU files on disk.
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 4);
}

class InTransitModeTest : public ::testing::TestWithParam<const char*> {};

TEST_P(InTransitModeTest, RunsAllMeasurementPoints) {
  const std::string mode = GetParam();
  const std::string dir = TempSubdir("wf_it_" + mode);

  nek_sensei::InTransitOptions options;
  nekrs::cases::RayleighBenardOptions rbc;
  rbc.elements = {2, 2, 2};
  rbc.order = 3;
  options.flow = nekrs::cases::RayleighBenardCase(rbc);
  options.steps = 4;
  options.sim_per_endpoint = 2;

  if (mode == "none") {
    options.sim_xml = "<sensei/>";
    options.endpoint_xml = "<sensei/>";
  } else {
    options.sim_xml =
        "<sensei><analysis type=\"adios\" frequency=\"2\"/></sensei>";
    if (mode == "checkpoint") {
      options.endpoint_xml =
          "<sensei><analysis type=\"checkpoint\" output=\"" + dir +
          "\"/></sensei>";
    } else {
      options.endpoint_xml =
          "<sensei><analysis type=\"catalyst\" output=\"" + dir +
          "\" width=\"48\" height=\"32\">"
          "<render array=\"temperature\"/>"
          "<render array=\"velocity\" magnitude=\"1\" azimuth=\"90\"/>"
          "</analysis></sensei>";
    }
  }

  auto metrics = nek_sensei::RunInTransit(2, options);
  // 2 sim ranks + 1 endpoint rank reported.
  ASSERT_EQ(metrics.ranks.size(), 3u);
  EXPECT_TRUE(metrics.ranks[0].is_sim);
  EXPECT_FALSE(metrics.ranks[2].is_sim);
  EXPECT_GT(metrics.MeanSimStepSeconds(), 0.0);

  if (mode == "none") {
    EXPECT_EQ(metrics.bytes_written, 0u);
  } else if (mode == "checkpoint") {
    EXPECT_GT(metrics.bytes_written, 0u);
    EXPECT_EQ(metrics.images_written, 0u);
  } else {
    // Two images per trigger, 2 triggers (steps 2 and 4).
    EXPECT_EQ(metrics.images_written, 4u);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, InTransitModeTest,
                         ::testing::Values("none", "checkpoint", "catalyst"));

TEST(WorkflowTest, InTransitSimMemoryIndependentOfEndpointAnalysis) {
  // Fig 6's key claim: the sim-node memory footprint does not depend on
  // what the endpoint does with the data.
  nek_sensei::InTransitOptions options;
  nekrs::cases::RayleighBenardOptions rbc;
  rbc.elements = {2, 2, 2};
  rbc.order = 3;
  options.flow = nekrs::cases::RayleighBenardCase(rbc);
  options.steps = 4;
  options.sim_per_endpoint = 2;
  options.sim_xml =
      "<sensei><analysis type=\"adios\" frequency=\"2\"/></sensei>";

  const std::string dir = TempSubdir("wf_mem");
  auto none = options;
  none.endpoint_xml = "<sensei/>";
  auto chk = options;
  chk.endpoint_xml = "<sensei><analysis type=\"checkpoint\" output=\"" + dir +
                     "\"/></sensei>";

  auto m_none = nek_sensei::RunInTransit(2, none);
  auto m_chk = nek_sensei::RunInTransit(2, chk);
  EXPECT_EQ(m_none.MaxSimHostPeakBytes(), m_chk.MaxSimHostPeakBytes());
}


// ---- Telemetry --------------------------------------------------------------

TEST(WorkflowTelemetryTest, CatalystRunAttributesStepTimeToChildSpans) {
  const std::string dir = TempSubdir("wf_tel");
  nek_sensei::InSituOptions options;
  options.flow = SmallCase();
  options.steps = 4;
  // Pin sync: this test asserts the INLINE path's tracer attribution (the
  // async worker records no spans), so it must not flip under the CI
  // async-default environment.
  options.sensei_xml =
      "<sensei><pipeline mode=\"sync\"/>"
      "<analysis type=\"catalyst\" frequency=\"1\" output=\"" + dir +
      "\" array=\"velocity\" magnitude=\"1\" width=\"48\" height=\"32\"/>"
      "</sensei>";
  options.telemetry.enabled = true;
  options.telemetry.trace_path = dir + "/trace.json";
  options.telemetry.summary_path = dir + "/telemetry.json";

  const auto metrics = nek_sensei::RunInSitu(2, options);
  const auto& t = metrics.telemetry;
  ASSERT_FALSE(t.Empty());
  EXPECT_EQ(t.ranks, 2);
  EXPECT_EQ(t.dropped_spans, 0u);
  // Every step on every rank produced exactly one solver and bridge span.
  EXPECT_EQ(t.SpanCount("solver.step"), 8u);
  EXPECT_EQ(t.SpanCount("bridge.update"), 8u);
  EXPECT_EQ(t.SpanCount("analysis.catalyst"), 8u);
  EXPECT_GT(t.SpanCount("catalyst.render"), 0u);

  // Attribution: the named child spans must account for >= 90% of each
  // parent's time (the telemetry report's core promise).
  const double solver_children = t.SpanTotalSeconds("solver.advection") +
                                 t.SpanTotalSeconds("solver.helmholtz") +
                                 t.SpanTotalSeconds("solver.pressure") +
                                 t.SpanTotalSeconds("solver.temperature") +
                                 t.SpanTotalSeconds("solver.filter");
  EXPECT_GE(solver_children, 0.9 * t.SpanTotalSeconds("solver.step"));
  const double bridge_children = t.SpanTotalSeconds("analysis.catalyst") +
                                 t.SpanTotalSeconds("analysis.release");
  EXPECT_GE(bridge_children, 0.9 * t.SpanTotalSeconds("bridge.update"));

  // Both export files were written: a Perfetto-loadable trace with one
  // track per rank, and the machine-readable aggregate.
  std::ifstream trace(dir + "/trace.json");
  ASSERT_TRUE(trace.good());
  std::stringstream ss;
  ss << trace.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"rank 0\""), std::string::npos);
  EXPECT_NE(json.find("\"rank 1\""), std::string::npos);
  EXPECT_NE(json.find("\"solver.step\""), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(dir + "/telemetry.json"));
}

TEST(WorkflowTelemetryTest, XmlTelemetryElementEnablesTracing) {
  // Tracing is a pipeline knob like any other: switched on from the sensei
  // XML without touching the options struct.
  const std::string dir = TempSubdir("wf_tel_xml");
  nek_sensei::InSituOptions options;
  options.flow = SmallCase();
  options.steps = 2;
  // Pin sync: asserts spans from the inline update path.
  options.sensei_xml =
      "<sensei><pipeline mode=\"sync\"/>"
      "<telemetry summary=\"" + dir + "/telemetry.json\"/>"
      "<analysis type=\"checkpoint\" frequency=\"2\" output=\"" + dir +
      "\"/></sensei>";
  const auto metrics = nek_sensei::RunInSitu(1, options);
  ASSERT_FALSE(metrics.telemetry.Empty());
  EXPECT_EQ(metrics.telemetry.SpanCount("solver.step"), 2u);
  EXPECT_GT(metrics.telemetry.SpanCount("checkpoint.write"), 0u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/telemetry.json"));
}

TEST(WorkflowTelemetryTest, DisabledTracingRecordsNothing) {
  // The zero-overhead contract: without the opt-in, no tracer is installed
  // and no span storage is populated anywhere in the pipeline.
  const std::string dir = TempSubdir("wf_tel_off");
  nek_sensei::InSituOptions options;
  options.flow = SmallCase();
  options.steps = 2;
  options.sensei_xml =
      "<sensei><analysis type=\"catalyst\" frequency=\"1\" output=\"" + dir +
      "\" array=\"velocity\" magnitude=\"1\" width=\"48\" height=\"32\"/>"
      "</sensei>";
  const auto metrics = nek_sensei::RunInSitu(1, options);
  EXPECT_TRUE(metrics.telemetry.Empty());
  EXPECT_EQ(metrics.telemetry.total_spans, 0u);
  EXPECT_TRUE(metrics.telemetry.spans.empty());
  EXPECT_TRUE(metrics.telemetry.counters.empty());
}

TEST(WorkflowTelemetryTest, CountersReportZeroCopyCatalystInvariant) {
  // Cross-check the tracer's counters against the data plane's zero-copy
  // invariant (PR 1): an in situ Catalyst pipeline performs no full-field
  // host copies — fields are staged D2H once and adopted.  Single rank:
  // multi-rank compositing additionally ships framebuffers to root, a
  // separate (bounded, fixed-size) cost outside this invariant.
  const std::string dir = TempSubdir("wf_tel_copies");
  nek_sensei::InSituOptions options;
  options.flow = SmallCase();
  options.steps = 4;
  options.sensei_xml =
      "<sensei><analysis type=\"catalyst\" frequency=\"2\" output=\"" + dir +
      "\" array=\"velocity\" magnitude=\"1\" width=\"48\" height=\"32\"/>"
      "</sensei>";
  options.telemetry.enabled = true;
  const auto metrics = nek_sensei::RunInSitu(1, options);
  const auto& t = metrics.telemetry;
  ASSERT_FALSE(t.Empty());
  EXPECT_DOUBLE_EQ(t.Counter("buffer.full_copies"), 0.0);
  EXPECT_GT(t.Counter("buffer.adoptions"), 0.0);
  EXPECT_GT(t.Counter("d2h.bytes"), 0.0);
  // Counter totals agree with the independently-gathered run metrics.
  EXPECT_DOUBLE_EQ(t.Counter("catalyst.images"),
                   static_cast<double>(metrics.images_written));
  EXPECT_DOUBLE_EQ(t.Counter("storage.bytes_written"),
                   static_cast<double>(metrics.bytes_written));
}

// ---- Metrics plane ----------------------------------------------------------

TEST(WorkflowMetricsTest, InSituPlaneProducesAggregatedReportAndJson) {
  // The run-health plane works without tracing: it installs a per-rank
  // registry, reduces across ranks at run end, and writes one aggregated
  // metrics.json (min/mean/max/p95 + imbalance per metric).
  const std::string dir = TempSubdir("wf_metrics");
  nek_sensei::InSituOptions options;
  options.flow = SmallCase();
  options.steps = 4;
  // Pin sync: bridge.updates counts every inline Update call (8); the async
  // pipeline only counts executed (due) jobs.
  options.sensei_xml =
      "<sensei><pipeline mode=\"sync\"/>"
      "<analysis type=\"catalyst\" frequency=\"2\" output=\"" + dir +
      "\" array=\"velocity\" magnitude=\"1\" width=\"48\" height=\"32\"/>"
      "</sensei>";
  options.telemetry.metrics = true;
  options.telemetry.metrics_path = dir + "/metrics.json";

  const auto metrics = nek_sensei::RunInSitu(2, options);
  EXPECT_TRUE(metrics.telemetry.Empty());  // no tracer was installed

  const auto& report = metrics.metrics_report;
  ASSERT_FALSE(report.Empty());
  EXPECT_EQ(report.ranks, 2);
  const auto& step = report.counters.at("solver.step_seconds");
  EXPECT_EQ(step.ranks, 2);
  EXPECT_GT(step.min, 0.0);
  EXPECT_GE(step.max, step.mean);
  EXPECT_GE(step.imbalance, 1.0);
  EXPECT_DOUBLE_EQ(report.CounterSum("solver.steps"), 8.0);
  EXPECT_DOUBLE_EQ(report.CounterSum("bridge.updates"), 8.0);
  ASSERT_NE(report.Gauge("memory.host_hwm_bytes"), nullptr);
  EXPECT_GT(report.Gauge("memory.host_hwm_bytes")->high_watermark, 0.0);
  EXPECT_GT(report.histograms.at("solver.step_seconds").count, 0u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/metrics.json"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/metrics.json.tmp"));
}

TEST(WorkflowMetricsTest, XmlTelemetryAttributesEnablePlaneAndHeartbeat) {
  const std::string dir = TempSubdir("wf_metrics_xml");
  nek_sensei::InSituOptions options;
  options.flow = SmallCase();
  options.steps = 4;
  options.sensei_xml =
      "<sensei><telemetry metrics=\"" + dir + "/metrics.json\""
      " heartbeat=\"2\"/>"
      "<analysis type=\"checkpoint\" frequency=\"2\" output=\"" + dir +
      "\"/></sensei>";
  const auto metrics = nek_sensei::RunInSitu(2, options);
  ASSERT_FALSE(metrics.metrics_report.Empty());
  EXPECT_DOUBLE_EQ(metrics.metrics_report.CounterSum("solver.steps"), 8.0);
  EXPECT_TRUE(std::filesystem::exists(dir + "/metrics.json"));
}

TEST(WorkflowMetricsTest, E2eLatencyHistogramCountsPartitionIndependent) {
  // Acceptance pin for the e2e latency plane (DESIGN.md §5d): exactly one
  // e2e.step_to_image / e2e.step_to_recv sample per delivered step —
  // observed on one rank only — so the histogram counts are identical no
  // matter how the same work is partitioned across sim/endpoint ranks.
  auto run = [](int sim_ranks) {
    const std::string dir =
        TempSubdir("wf_e2e_" + std::to_string(sim_ranks));
    nek_sensei::InTransitOptions options;
    nekrs::cases::RayleighBenardOptions rbc;
    rbc.elements = {8, 2, 2};  // 8 x-layers: partitionable 4 or 8 ways
    rbc.order = 3;
    options.flow = nekrs::cases::RayleighBenardCase(rbc);
    options.flow.mesh.partition_axis = 0;
    options.steps = 6;
    options.sim_per_endpoint = 2;
    options.sim_xml =
        "<sensei><analysis type=\"adios\" frequency=\"2\"/></sensei>";
    options.endpoint_xml =
        "<sensei><analysis type=\"catalyst\" output=\"" + dir +
        "\" width=\"48\" height=\"32\">"
        "<render array=\"temperature\"/></analysis></sensei>";
    options.telemetry.metrics = true;  // in-memory report, no file
    return nek_sensei::RunInTransit(sim_ranks, options);
  };
  const auto m4 = run(4);   // 4 sim + 2 endpoint ranks
  const auto m8 = run(8);   // 8 sim + 4 endpoint ranks
  for (const char* name :
       {"e2e.step_to_image_seconds", "e2e.step_to_recv_seconds"}) {
    const auto& h4 = m4.metrics_report.histograms;
    const auto& h8 = m8.metrics_report.histograms;
    ASSERT_TRUE(h4.count(name)) << name;
    ASSERT_TRUE(h8.count(name)) << name;
    // Steps 2, 4, 6 ship (frequency 2): one sample each, on any layout.
    EXPECT_EQ(h4.at(name).count, 3u) << name;
    EXPECT_EQ(h8.at(name).count, h4.at(name).count) << name;
    EXPECT_GE(h4.at(name).min, 0.0) << name;
    EXPECT_GE(h4.at(name).max, h4.at(name).Mean()) << name;
  }
  // Causality: an image cannot land before its step was received.
  EXPECT_GE(m4.metrics_report.histograms.at("e2e.step_to_image_seconds")
                .Mean(),
            m4.metrics_report.histograms.at("e2e.step_to_recv_seconds")
                .Mean());
}

TEST(WorkflowMetricsTest, InTransitPlaneCapturesSstBackpressure) {
  // In transit the plane additionally watches the SST staging queue: depth
  // watermarks plus the block-decision counter that exposes backpressure.
  nek_sensei::InTransitOptions options;
  options.flow = SmallCase();
  options.steps = 4;
  options.sim_per_endpoint = 2;
  options.sim_xml =
      "<sensei><analysis type=\"adios\" frequency=\"1\"/></sensei>";
  options.endpoint_xml = "<sensei/>";
  options.telemetry.metrics = true;

  const auto metrics = nek_sensei::RunInTransit(2, options);
  const auto& report = metrics.metrics_report;
  ASSERT_FALSE(report.Empty());
  EXPECT_EQ(report.ranks, 3);  // 2 sim + 1 endpoint
  EXPECT_DOUBLE_EQ(report.CounterSum("solver.steps"), 8.0);
  const instrument::MetricStat* queue = report.Gauge("sst.queue_depth");
  ASSERT_NE(queue, nullptr);
  EXPECT_GE(queue->high_watermark, 1.0);
  EXPECT_GT(report.CounterSum("sst.steps"), 0.0);
  EXPECT_GT(report.CounterSum("sst.payload_bytes"), 0.0);
}

TEST(WorkflowMetricsTest, InTransitCompressReportsCompressionRatio) {
  // End-to-end codec plane: blockfloat on points + every data array and
  // delta shuffle_rle on connectivity, selected purely through the SENSEI
  // XML.  The run must ship >= 4x fewer bytes on the wire and surface the
  // aggregate ratio in the reduced metrics report (what metrics.json and
  // the bench gate read).
  nek_sensei::InTransitOptions options;
  nekrs::cases::RayleighBenardOptions rbc;
  rbc.elements = {2, 2, 2};
  rbc.order = 3;
  options.flow = nekrs::cases::RayleighBenardCase(rbc);
  options.steps = 4;
  options.sim_per_endpoint = 2;
  options.sim_xml =
      "<sensei><analysis type=\"adios\" frequency=\"2\">"
      "<points><codec type=\"blockfloat\" rate=\"8\"/></points>"
      "<connectivity><codec type=\"shuffle_rle\" delta=\"1\"/>"
      "</connectivity>"
      "<array name=\"*\"><codec type=\"blockfloat\" rate=\"8\"/></array>"
      "</analysis></sensei>";
  options.endpoint_xml = "<sensei/>";
  options.telemetry.metrics = true;

  const auto metrics = nek_sensei::RunInTransit(2, options);
  const auto& report = metrics.metrics_report;
  ASSERT_FALSE(report.Empty());
  const double raw = report.CounterSum("sst.bytes_raw");
  const double wire = report.CounterSum("sst.bytes_wire");
  EXPECT_GT(raw, 0.0);
  EXPECT_GT(wire, 0.0);
  EXPECT_GE(raw, 4.0 * wire);  // the acceptance floor on RBC fields
  const instrument::MetricStat* ratio = report.Gauge("sst.compression_ratio");
  ASSERT_NE(ratio, nullptr);
  EXPECT_DOUBLE_EQ(ratio->mean, raw / wire);
  EXPECT_DOUBLE_EQ(ratio->min, ratio->max);
  EXPECT_GE(ratio->mean, 4.0);
}

TEST(WorkflowMetricsTest, UncompressedInTransitRatioIsUnity) {
  // Identity transport still accounts raw/wire (equal), so the synthesized
  // ratio gauge reports exactly 1 — and dashboards need no special case.
  nek_sensei::InTransitOptions options;
  options.flow = SmallCase();
  options.steps = 2;
  options.sim_per_endpoint = 2;
  options.sim_xml =
      "<sensei><analysis type=\"adios\" frequency=\"1\"/></sensei>";
  options.endpoint_xml = "<sensei/>";
  options.telemetry.metrics = true;

  const auto metrics = nek_sensei::RunInTransit(2, options);
  const auto& report = metrics.metrics_report;
  ASSERT_FALSE(report.Empty());
  EXPECT_DOUBLE_EQ(report.CounterSum("sst.bytes_raw"),
                   report.CounterSum("sst.bytes_wire"));
  const instrument::MetricStat* ratio = report.Gauge("sst.compression_ratio");
  ASSERT_NE(ratio, nullptr);
  EXPECT_DOUBLE_EQ(ratio->mean, 1.0);
}

TEST(WorkflowMetricsTest, DisabledPlaneLeavesReportEmpty) {
  nek_sensei::InSituOptions options;
  options.flow = SmallCase();
  options.steps = 2;
  options.sensei_xml = "<sensei/>";
  const auto metrics = nek_sensei::RunInSitu(2, options);
  EXPECT_TRUE(metrics.metrics_report.Empty());
}

TEST(WorkflowTelemetryTest, InTransitSstWriterPacksExactlyOnePerTrigger) {
  // The streaming side of the same invariant: marshalling a step for SST
  // costs exactly one full-field copy per sim rank per trigger (the gather
  // pack), visible both as spans and as the copy counter.
  nek_sensei::InTransitOptions options;
  nekrs::cases::RayleighBenardOptions rbc;
  rbc.elements = {2, 2, 2};
  rbc.order = 3;
  options.flow = nekrs::cases::RayleighBenardCase(rbc);
  options.steps = 4;
  options.sim_per_endpoint = 2;
  // Pin sync: asserts the sim-side marshal/send spans, which the async
  // worker would run untraced.
  options.sim_xml =
      "<sensei><pipeline mode=\"sync\"/>"
      "<analysis type=\"adios\" frequency=\"2\"/></sensei>";
  options.endpoint_xml = "<sensei/>";  // endpoint adopts, never copies
  options.telemetry.enabled = true;

  const auto metrics = nek_sensei::RunInTransit(2, options);
  const auto& t = metrics.telemetry;
  ASSERT_FALSE(t.Empty());
  // 2 triggers (steps 2 and 4) x 2 sim ranks.
  EXPECT_EQ(t.SpanCount("adios.marshal"), 4u);
  EXPECT_EQ(t.SpanCount("sst.send"), 4u);
  // The endpoint gathers both writers per NextStep: one recv span per
  // trigger plus the final end-of-stream probe.
  EXPECT_GE(t.SpanCount("sst.recv"), 2u);
  EXPECT_DOUBLE_EQ(t.Counter("buffer.full_copies"), 4.0);
  EXPECT_GT(t.Counter("sst.bytes"), 0.0);
}

// ---- Async pipeline ---------------------------------------------------------

// Every regular file under `root`, keyed by relative path, with its bytes.
std::map<std::string, std::string> ReadTree(const std::string& root) {
  std::map<std::string, std::string> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[std::filesystem::relative(entry.path(), root).string()] =
        bytes.str();
  }
  return files;
}

void ExpectTreesIdentical(const std::string& sync_dir,
                          const std::string& async_dir) {
  const auto sync_tree = ReadTree(sync_dir);
  const auto async_tree = ReadTree(async_dir);
  ASSERT_FALSE(sync_tree.empty());
  EXPECT_EQ(async_tree.size(), sync_tree.size());
  for (const auto& [name, bytes] : sync_tree) {
    const auto it = async_tree.find(name);
    ASSERT_NE(it, async_tree.end()) << name << " missing from async run";
    EXPECT_EQ(it->second, bytes)
        << name << " differs between sync and async";
  }
}

// Stats + Catalyst + checkpoint (the quickstart shape), optionally behind
// the async pipeline.
std::string QuickstartLikeXml(const std::string& dir,
                              const std::string& pipeline) {
  return "<sensei>" + pipeline +
         "<analysis type=\"stats\" frequency=\"2\" arrays=\"velocity\""
         " log=\"" + dir + "/stats.log\"/>"
         "<analysis type=\"catalyst\" frequency=\"2\" output=\"" + dir +
         "\" array=\"velocity\" magnitude=\"1\" width=\"48\" height=\"32\"/>"
         "<analysis type=\"checkpoint\" frequency=\"4\" output=\"" + dir +
         "\"/></sensei>";
}

TEST(AsyncPipelineTest, InSituOutputsByteIdenticalToSync) {
  // The tentpole's correctness bar: offloading the whole Update path to the
  // per-rank worker must not change a single output byte — images,
  // checkpoints, the stats log — nor the zero-copy ledger.
  const std::string sync_dir = TempSubdir("async_eq_sync");
  const std::string async_dir = TempSubdir("async_eq_async");

  nek_sensei::InSituOptions options;
  options.flow = SmallCase();
  options.steps = 4;
  options.telemetry.metrics = true;

  auto sync_options = options;
  sync_options.sensei_xml = QuickstartLikeXml(sync_dir, "");
  auto async_options = options;
  async_options.sensei_xml = QuickstartLikeXml(
      async_dir, "<pipeline mode=\"async\" depth=\"2\"/>");

  const auto sync_metrics = nek_sensei::RunInSitu(2, sync_options);
  const auto async_metrics = nek_sensei::RunInSitu(2, async_options);

  EXPECT_GT(sync_metrics.images_written, 0u);
  EXPECT_EQ(async_metrics.images_written, sync_metrics.images_written);
  EXPECT_EQ(async_metrics.bytes_written, sync_metrics.bytes_written);
  ExpectTreesIdentical(sync_dir, async_dir);

  // Mode-independent data plane: the async path stages the same bytes the
  // same way, just on a different thread.  (Allocation counts legitimately
  // drop async — slot reuse — so they are not compared.)
  const auto& s = sync_metrics.metrics_report;
  const auto& a = async_metrics.metrics_report;
  ASSERT_FALSE(s.Empty());
  ASSERT_FALSE(a.Empty());
  for (const char* counter : {"buffer.full_copies", "buffer.copied_bytes",
                              "storage.bytes_written", "d2h.bytes"}) {
    EXPECT_DOUBLE_EQ(a.CounterSum(counter), s.CounterSum(counter))
        << counter;
  }
}

TEST(AsyncPipelineTest, InTransitOutputsByteIdenticalToSync) {
  // Same bar for the streaming path: the worker owns marshal + SST send,
  // and the endpoint must not be able to tell.
  const std::string sync_dir = TempSubdir("async_it_sync");
  const std::string async_dir = TempSubdir("async_it_async");

  nek_sensei::InTransitOptions options;
  nekrs::cases::RayleighBenardOptions rbc;
  rbc.elements = {2, 2, 2};
  rbc.order = 3;
  options.flow = nekrs::cases::RayleighBenardCase(rbc);
  options.steps = 4;
  options.sim_per_endpoint = 2;

  auto endpoint_xml = [](const std::string& dir) {
    return "<sensei><analysis type=\"catalyst\" output=\"" + dir +
           "\" width=\"48\" height=\"32\">"
           "<render array=\"temperature\"/>"
           "<render array=\"velocity\" magnitude=\"1\" azimuth=\"90\"/>"
           "</analysis></sensei>";
  };
  auto sync_options = options;
  sync_options.sim_xml =
      "<sensei><analysis type=\"adios\" frequency=\"2\"/></sensei>";
  sync_options.endpoint_xml = endpoint_xml(sync_dir);
  auto async_options = options;
  async_options.sim_xml =
      "<sensei><pipeline mode=\"async\" depth=\"2\"/>"
      "<analysis type=\"adios\" frequency=\"2\"/></sensei>";
  async_options.endpoint_xml = endpoint_xml(async_dir);

  const auto sync_metrics = nek_sensei::RunInTransit(2, sync_options);
  const auto async_metrics = nek_sensei::RunInTransit(2, async_options);

  EXPECT_EQ(sync_metrics.images_written, 4u);  // 2 renders x 2 triggers
  EXPECT_EQ(async_metrics.images_written, sync_metrics.images_written);
  EXPECT_EQ(async_metrics.bytes_written, sync_metrics.bytes_written);
  ExpectTreesIdentical(sync_dir, async_dir);
}

TEST(AsyncPipelineTest, AsyncRunSurfacesPipelineMetrics) {
  // The overlap ledger: submits count due steps, worker time lands in
  // bridge.update_seconds, and Shutdown publishes the overlap/offload
  // split the heartbeat and bench tables read.
  const std::string dir = TempSubdir("async_metrics");
  nek_sensei::InSituOptions options;
  options.flow = SmallCase();
  options.steps = 4;
  options.sensei_xml =
      "<sensei><pipeline mode=\"async\" depth=\"2\"/>"
      "<analysis type=\"catalyst\" frequency=\"2\" output=\"" + dir +
      "\" array=\"velocity\" magnitude=\"1\" width=\"48\" height=\"32\"/>"
      "</sensei>";
  options.telemetry.metrics = true;

  const auto metrics = nek_sensei::RunInSitu(2, options);
  const auto& report = metrics.metrics_report;
  ASSERT_FALSE(report.Empty());
  // Steps 2 and 4 are due (frequency 2) on each of the 2 ranks.
  EXPECT_DOUBLE_EQ(report.CounterSum("pipeline.submits"), 4.0);
  EXPECT_DOUBLE_EQ(report.CounterSum("bridge.updates"), 4.0);
  EXPECT_GT(report.CounterSum("bridge.update_seconds"), 0.0);
  EXPECT_EQ(report.counters.count("pipeline.queue_wait_seconds"), 1u);
  EXPECT_EQ(report.counters.count("pipeline.overlap_seconds"), 1u);
  ASSERT_NE(report.Gauge("insitu.offloaded_share"), nullptr);
  EXPECT_LE(report.Gauge("insitu.offloaded_share")->high_watermark, 1.0);
}

// ---- Heartbeat formatting ---------------------------------------------------

TEST(HeartbeatFormatTest, ClampsInsituShareAtOneHundredPercent) {
  // Busy-clock vs wall-clock skew can push the raw ratio past 100; the
  // printed line must clamp (work off the critical path belongs to the
  // offload column instead).
  nek_sensei::HeartbeatLine line;
  line.done = 5;
  line.total = 10;
  line.rate_steps_per_second = 2.0;
  line.eta_seconds = 2.5;
  line.mem_mean_bytes = 1024;
  line.mem_max_bytes = 2048;
  line.insitu_percent = 137.0;
  const std::string out = nek_sensei::FormatHeartbeatLine(line);
  EXPECT_NE(out.find("step 5/10 (50%)"), std::string::npos) << out;
  EXPECT_NE(out.find("insitu 100%"), std::string::npos) << out;
  EXPECT_EQ(out.find("137"), std::string::npos) << out;
  // Sync line: no offload or SST queue columns.
  EXPECT_EQ(out.find("offload"), std::string::npos) << out;
  EXPECT_EQ(out.find("sst queue"), std::string::npos) << out;
}

TEST(HeartbeatFormatTest, AsyncLineAddsOffloadAndQueueColumns) {
  nek_sensei::HeartbeatLine line;
  line.done = 4;
  line.total = 8;
  line.insitu_percent = 42.0;
  line.offload_percent = 33.0;
  line.queue_depth = 1;
  line.queue_limit = 2;
  const std::string out = nek_sensei::FormatHeartbeatLine(line);
  EXPECT_NE(out.find("insitu 42%"), std::string::npos) << out;
  EXPECT_NE(out.find("offload 33%"), std::string::npos) << out;
  EXPECT_NE(out.find("sst queue 1/2"), std::string::npos) << out;
}

TEST(HeartbeatFormatTest, WireColumnOnlyWhenCompressionRan) {
  nek_sensei::HeartbeatLine line;
  line.done = 2;
  line.total = 4;

  // No transport at all: no wire column.
  EXPECT_EQ(nek_sensei::FormatHeartbeatLine(line).find("wire"),
            std::string::npos);

  // Identity transport (raw == wire): still no wire column, so
  // uncompressed runs keep their exact pre-codec line.
  line.raw_bytes = 4096;
  line.wire_bytes = 4096;
  EXPECT_EQ(nek_sensei::FormatHeartbeatLine(line).find("wire"),
            std::string::npos);

  // A codec actually shrank the stream: the column prints the wire bytes
  // and the compression ratio.
  line.raw_bytes = 8 << 20;
  line.wire_bytes = 1 << 20;
  const std::string out = nek_sensei::FormatHeartbeatLine(line);
  EXPECT_NE(out.find("wire"), std::string::npos) << out;
  EXPECT_NE(out.find("1.0 MB"), std::string::npos) << out;
  EXPECT_NE(out.find("8.0x"), std::string::npos) << out;
}

TEST(HeartbeatFormatTest, UnknownEtaRendersNaNeverInfOrGarbage) {
  // A zero observed rate (first tick inside one timer quantum) has no
  // defined ETA.  The line must say `eta n/a` — the old behavior printed
  // the raw division result (inf).
  nek_sensei::HeartbeatLine line;
  line.done = 1;
  line.total = 10;
  line.rate_steps_per_second = 0.0;
  line.eta_seconds = -1.0;
  std::string out = nek_sensei::FormatHeartbeatLine(line);
  EXPECT_NE(out.find("| eta n/a"), std::string::npos) << out;
  EXPECT_EQ(out.find("inf"), std::string::npos) << out;
  EXPECT_EQ(out.find("nan"), std::string::npos) << out;

  // Non-finite values (however they were produced) degrade the same way.
  line.eta_seconds = INFINITY;
  EXPECT_NE(nek_sensei::FormatHeartbeatLine(line).find("eta n/a"),
            std::string::npos);
  line.eta_seconds = NAN;
  EXPECT_NE(nek_sensei::FormatHeartbeatLine(line).find("eta n/a"),
            std::string::npos);

  // And a known rate still renders the real ETA.
  line.rate_steps_per_second = 2.0;
  line.eta_seconds = 4.5;
  out = nek_sensei::FormatHeartbeatLine(line);
  EXPECT_NE(out.find("| eta 4.5s"), std::string::npos) << out;
  EXPECT_EQ(out.find("n/a"), std::string::npos) << out;
}

TEST(HeartbeatFormatTest, NoteColumnCarriesStragglerVerdicts) {
  nek_sensei::HeartbeatLine line;
  line.done = 3;
  line.total = 9;
  EXPECT_EQ(nek_sensei::FormatHeartbeatLine(line).find("straggler"),
            std::string::npos);
  line.note = "straggler rank 2 (solver)";
  const std::string out = nek_sensei::FormatHeartbeatLine(line);
  EXPECT_NE(out.find(" | straggler rank 2 (solver)"), std::string::npos)
      << out;
}

// ---- Straggler plumbing through the workflow --------------------------------

TEST(WorkflowHealthTest, InjectedStragglerIsFlaggedWithSolverAttribution) {
  // Heartbeat-only path (no monitor): the per-step health gather feeds the
  // detector, and the verdict lands in the run's metrics report + json.
  const std::string dir = TempSubdir("wf_straggler");
  nek_sensei::InSituOptions options;
  nekrs::cases::TaylorGreenOptions tg;
  tg.elements = {2, 2, 4};  // z is the partition axis: one layer per rank
  tg.order = 3;
  options.flow = nekrs::cases::TaylorGreenCase(tg);
  options.steps = 6;
  options.use_sensei = false;
  options.telemetry.metrics = true;
  options.telemetry.metrics_path = dir + "/metrics.json";
  options.telemetry.heartbeat_steps = 2;
  // A wall-clock-sized spin so the excess dominates base step time even
  // under sanitizer slowdowns.
  options.straggler_rank = 2;
  options.straggler_seconds = 0.02;

  const auto metrics = nek_sensei::RunInSitu(4, options);
  ASSERT_FALSE(metrics.metrics_report.anomalies.empty());
  const auto& anomaly = metrics.metrics_report.anomalies[0];
  EXPECT_EQ(anomaly.rank, 2);
  EXPECT_EQ(anomaly.dominant_span, "solver");
  EXPECT_GE(anomaly.z, 3.5);
  EXPECT_GT(anomaly.step_seconds, anomaly.median_seconds);

  const std::string json = [&] {
    std::ifstream in(dir + "/metrics.json");
    return std::string{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
  }();
  EXPECT_EQ(json.find("\"anomalies\": []"), std::string::npos);
  EXPECT_NE(json.find("\"anomalies\": ["), std::string::npos);
  EXPECT_NE(json.find("\"rank\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"dominant_span\": \"solver\""), std::string::npos);
}

TEST(WorkflowHealthTest, BalancedRunSerializesEmptyAnomaliesArray) {
  const std::string dir = TempSubdir("wf_balanced");
  nek_sensei::InSituOptions options;
  // A heavier case than SmallCase(): with multi-millisecond steps, OS
  // scheduling jitter stays well inside the detector's 1.3x ratio guard.
  // z is the partition axis — one element layer per rank keeps it balanced.
  nekrs::cases::TaylorGreenOptions tg;
  tg.elements = {3, 3, 4};
  tg.order = 5;
  options.flow = nekrs::cases::TaylorGreenCase(tg);
  options.steps = 6;
  options.use_sensei = false;
  options.telemetry.metrics = true;
  options.telemetry.metrics_path = dir + "/metrics.json";
  options.telemetry.heartbeat_steps = 2;

  const auto metrics = nek_sensei::RunInSitu(4, options);
  EXPECT_TRUE(metrics.metrics_report.anomalies.empty());
  const std::string json = [&] {
    std::ifstream in(dir + "/metrics.json");
    return std::string{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
  }();
  // The key is always serialized — [] is the clean-run contract consumers
  // (and the CI smoke job) rely on.
  EXPECT_NE(json.find("\"anomalies\": []"), std::string::npos);
}

// ---- Fault hook and heartbeat feeds of the shared step loop -----------------

// Sets an environment variable for one scope and restores the previous
// value (or its absence) on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    if (const char* previous = std::getenv(name)) previous_ = previous;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (previous_) {
      ::setenv(name_, previous_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> previous_;
};

// One flightrec_rank<N>.json dump: whether every line has the dump's JSON
// shape, and its events as (kind, step) pairs in ring order.
struct FlightDump {
  bool well_formed = false;
  std::vector<std::pair<std::string, int>> events;
};

FlightDump ReadFlightDump(const std::string& path) {
  FlightDump dump;
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  if (lines.size() < 8 || lines[0] != "{" || lines[5] != "  \"events\": [" ||
      lines[lines.size() - 2] != "  ]" || lines.back() != "}") {
    return dump;
  }
  static const char* const kHeaderKeys[] = {"rank", "capacity",
                                            "total_events", "dropped_events"};
  for (std::size_t i = 1; i < 5; ++i) {
    char key[32] = {};
    long long value = 0;
    int end = 0;
    if (std::sscanf(lines[i].c_str(), "  \"%31[a-z_]\": %lld,%n", key, &value,
                    &end) != 2 ||
        static_cast<std::size_t>(end) != lines[i].size() ||
        std::string(key) != kHeaderKeys[i - 1]) {
      return dump;
    }
  }
  for (std::size_t i = 6; i + 2 < lines.size(); ++i) {
    const std::string& line = lines[i];
    char kind[32] = {};
    long long ts_ns = 0;
    int step = 0;
    int detail = 0;
    if (std::sscanf(line.c_str(),
                    "    {\"kind\": \"%31[a-z_]\", \"ts_ns\": %lld, "
                    "\"step\": %d, \"value\": %*[^,], \"detail\": \"%n",
                    kind, &ts_ns, &step, &detail) != 3 ||
        detail == 0) {
      return dump;
    }
    // The detail string closes the object; every event but the last is
    // followed by a comma.
    const std::string tail = i + 3 < lines.size() ? "\"}," : "\"}";
    if (line.size() < static_cast<std::size_t>(detail) + tail.size() ||
        line.compare(line.size() - tail.size(), tail.size(), tail) != 0) {
      return dump;
    }
    dump.events.emplace_back(kind, step);
  }
  dump.well_formed = true;
  return dump;
}

TEST(WorkflowFaultTest, FailStepHookThrowsAndDumpsTheStepInFlight) {
  // NEK_SENSEI_FAIL_STEP makes every rank throw as the named step begins.
  // In situ only: no endpoint rank is left waiting, so the run must end
  // (a hang here is caught by the ctest timeout).
  const std::string dir = TempSubdir("wf_fail_step");
  const std::string previous_dump_dir = instrument::FlightRecorderDumpDir();
  nek_sensei::InSituOptions options;
  options.flow = SmallCase();
  options.steps = 4;
  {
    const ScopedEnv fail("NEK_SENSEI_FAIL_STEP", "2");
    const ScopedEnv dump_dir("NSM_FLIGHTREC_DIR", dir);
    try {
      nek_sensei::RunInSitu(2, options);
      ADD_FAILURE() << "the injected failure did not surface";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "injected failure at step 2 (solver.step)");
    }
  }
  // The runtime applied NSM_FLIGHTREC_DIR process-wide; put it back.
  instrument::SetFlightRecorderDumpDir(previous_dump_dir);

  for (int rank = 0; rank < 2; ++rank) {
    const FlightDump dump = ReadFlightDump(
        dir + "/flightrec_rank" + std::to_string(rank) + ".json");
    ASSERT_TRUE(dump.well_formed) << "rank " << rank;
    int last_step = -1;
    for (const auto& [kind, step] : dump.events) {
      if (kind == "step") last_step = step;
    }
    EXPECT_EQ(last_step, 2) << "rank " << rank;
  }
}

// The `[heartbeat]` lines of captured stderr.
std::vector<std::string> HeartbeatLines(const std::string& captured) {
  std::vector<std::string> lines;
  std::istringstream in(captured);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("[heartbeat]", 0) == 0) lines.push_back(line);
  }
  return lines;
}

TEST(WorkflowHealthTest, HeartbeatColumnsFollowTheTransportTheRankHolds) {
  // Both workflows share one step loop; the queue and wire columns are fed
  // by the adios sender a rank holds, and an in situ rank holds none.
  // Both runs pin the sync pipeline: async ships on the worker, so whether
  // a given tick already sees wire bytes would be a race.
  const std::string dir = TempSubdir("wf_heartbeat_lines");
  nek_sensei::InSituOptions insitu;
  insitu.flow = SmallCase();
  insitu.steps = 4;
  insitu.sensei_xml =
      "<sensei><telemetry heartbeat=\"1\"/><pipeline mode=\"sync\"/>"
      "<analysis type=\"checkpoint\" frequency=\"2\" output=\"" +
      dir + "\"/></sensei>";
  ::testing::internal::CaptureStderr();
  nek_sensei::RunInSitu(2, insitu);
  const std::vector<std::string> insitu_lines =
      HeartbeatLines(::testing::internal::GetCapturedStderr());
  ASSERT_EQ(insitu_lines.size(), 4u);
  for (const std::string& line : insitu_lines) {
    EXPECT_EQ(line.find("sst queue"), std::string::npos) << line;
    EXPECT_EQ(line.find("| wire"), std::string::npos) << line;
  }

  nek_sensei::InTransitOptions intransit;
  nekrs::cases::RayleighBenardOptions rbc;
  rbc.elements = {2, 2, 2};
  rbc.order = 3;
  intransit.flow = nekrs::cases::RayleighBenardCase(rbc);
  intransit.steps = 4;
  intransit.sim_per_endpoint = 2;
  intransit.sim_xml =
      "<sensei><telemetry heartbeat=\"1\"/><pipeline mode=\"sync\"/>"
      "<analysis type=\"adios\" frequency=\"2\">"
      "<array name=\"*\"><codec type=\"blockfloat\" rate=\"8\"/></array>"
      "</analysis></sensei>";
  intransit.endpoint_xml = "<sensei/>";
  ::testing::internal::CaptureStderr();
  nek_sensei::RunInTransit(2, intransit);
  const std::vector<std::string> intransit_lines =
      HeartbeatLines(::testing::internal::GetCapturedStderr());
  ASSERT_EQ(intransit_lines.size(), 4u);
  for (std::size_t i = 0; i < intransit_lines.size(); ++i) {
    const std::string& line = intransit_lines[i];
    EXPECT_TRUE(line.find("sst queue 0/1") != std::string::npos ||
                line.find("sst queue 1/1") != std::string::npos)
        << line;
    // Step 2 ships first; from then on the compressed stream shows as
    // " | wire <bytes> (<ratio>x)".
    const std::size_t wire = line.find(" | wire ");
    const bool has_wire =
        wire != std::string::npos && line.find("x)", wire) != std::string::npos;
    EXPECT_EQ(has_wire, i >= 1) << line;
  }
}

// ---- Derived fields ---------------------------------------------------------

TEST(DerivedFieldTest, TaylorGreenVorticityIsAnalytic) {
  // u = sin x cos y, v = -cos x sin y, w = 0:
  // vorticity = (0, 0, 2 sin x sin y).
  Runtime::Run(2, [](Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::cases::TaylorGreenOptions options;
    options.elements = {3, 3, 2};
    options.order = 6;
    nekrs::FlowSolver solver(comm, device,
                             nekrs::cases::TaylorGreenCase(options));
    const std::size_t n = solver.VelocityX().size();
    occamini::Array<double> wx(device, n), wy(device, n), wz(device, n);
    solver.ComputeVorticity({wx.DevicePtr(), n}, {wy.DevicePtr(), n},
                            {wz.DevicePtr(), n});
    std::vector<double> x(n), y(n), z(n);
    solver.Mesh().FillCoordinates(solver.Rule(), x, y, z);
    double max_err = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      max_err = std::max(max_err, std::abs(wx.DevicePtr()[i]));
      max_err = std::max(max_err, std::abs(wy.DevicePtr()[i]));
      max_err = std::max(
          max_err,
          std::abs(wz.DevicePtr()[i] - 2.0 * std::sin(x[i]) * std::sin(y[i])));
    }
    max_err = comm.AllReduceValue(max_err, mpimini::Op::kMax);
    EXPECT_LT(max_err, 5e-3);  // spectral accuracy at order 6
  });
}

TEST(DerivedFieldTest, TaylorGreenQCriterionIsAnalytic) {
  // For the 2-D TG field: Q = -0.5(ux^2 + vy^2) - uy vx
  //   = -cos^2x cos^2y + sin^2x sin^2y.
  Runtime::Run(1, [](Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::cases::TaylorGreenOptions options;
    options.elements = {3, 3, 2};
    options.order = 6;
    nekrs::FlowSolver solver(comm, device,
                             nekrs::cases::TaylorGreenCase(options));
    const std::size_t n = solver.VelocityX().size();
    occamini::Array<double> q(device, n);
    solver.ComputeQCriterion({q.DevicePtr(), n});
    std::vector<double> x(n), y(n), z(n);
    solver.Mesh().FillCoordinates(solver.Rule(), x, y, z);
    double max_err = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double cx = std::cos(x[i]), cy = std::cos(y[i]);
      const double sx = std::sin(x[i]), sy = std::sin(y[i]);
      const double exact = -cx * cx * cy * cy + sx * sx * sy * sy;
      max_err = std::max(max_err, std::abs(q.DevicePtr()[i] - exact));
    }
    EXPECT_LT(max_err, 1e-2);
  });
}

TEST(DerivedFieldTest, AdaptorServesVorticityAndQCriterion) {
  Runtime::Run(1, [](Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::FlowSolver solver(comm, device, SmallCase());
    NekDataAdaptor adaptor;
    adaptor.Initialize(&solver);
    auto mesh = adaptor.GetMesh(0);
    EXPECT_TRUE(adaptor.AddArray(*mesh, "vorticity", svtk::Centering::kPoint));
    EXPECT_TRUE(
        adaptor.AddArray(*mesh, "qcriterion", svtk::Centering::kPoint));
    EXPECT_EQ(mesh->PointArray("vorticity")->Components(), 3);
    EXPECT_EQ(mesh->PointArray("qcriterion")->Components(), 1);
    // Derived fields are not advertised (checkpoints stay raw-state only).
    auto md = adaptor.GetMeshMetadata(0);
    for (const auto& a : md.arrays) {
      EXPECT_NE(a.name, "vorticity");
      EXPECT_NE(a.name, "qcriterion");
    }
    // But can be disabled outright.
    adaptor.SetDerivedFieldsEnabled(false);
    adaptor.ReleaseData();
    auto mesh2 = adaptor.GetMesh(0);
    EXPECT_FALSE(
        adaptor.AddArray(*mesh2, "vorticity", svtk::Centering::kPoint));
  });
}


// ---- Full view-mode pipeline ------------------------------------------------

TEST(ViewModesTest, SurfaceThresholdIsoAndSliceAllRender) {
  // One in situ run exercising every Catalyst view mode through the XML
  // configuration: plain surface, threshold, isosurface (of a derived
  // field), and an axis-aligned slice.
  const std::string dir = TempSubdir("views");
  nekrs::cases::RayleighBenardOptions rbc;
  rbc.elements = {3, 2, 2};
  rbc.order = 4;
  nek_sensei::InSituOptions options;
  options.flow = nekrs::cases::RayleighBenardCase(rbc);
  options.steps = 4;
  options.sensei_xml =
      "<sensei><analysis type=\"catalyst\" frequency=\"4\" output=\"" +
      dir +
      "\" width=\"48\" height=\"32\">"
      "<render array=\"temperature\" name=\"surface\"/>"
      "<render array=\"temperature\" name=\"thresh\" "
      "threshold_min=\"0.0\"/>"
      "<render array=\"velocity\" magnitude=\"1\" name=\"iso\" "
      "isovalue=\"0.0\" iso_array=\"temperature\"/>"
      "<render array=\"qcriterion\" name=\"slice\" slice_axis=\"y\" "
      "slice_position=\"0.7\"/>"
      "</analysis></sensei>";
  auto metrics = nek_sensei::RunInSitu(2, options);
  EXPECT_EQ(metrics.images_written, 4u);
  for (const char* name : {"surface", "thresh", "iso", "slice"}) {
    EXPECT_TRUE(std::filesystem::exists(dir + "/render_" + std::string(name) +
                                        "_000004.png"))
        << name;
  }
}

}  // namespace
