#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>

#include "instrument/tracer.hpp"
#include "mpimini/clock_sync.hpp"
#include "mpimini/comm.hpp"
#include "mpimini/runtime.hpp"

namespace {

using mpimini::Comm;
using mpimini::Op;
using mpimini::Runtime;

TEST(RuntimeTest, RunsBodyOnEveryRank) {
  std::atomic<int> count{0};
  Runtime::Run(4, [&](Comm& comm) {
    EXPECT_EQ(comm.Size(), 4);
    EXPECT_GE(comm.Rank(), 0);
    EXPECT_LT(comm.Rank(), 4);
    ++count;
  });
  EXPECT_EQ(count.load(), 4);
}

TEST(RuntimeTest, PropagatesExceptions) {
  EXPECT_THROW(Runtime::Run(3,
                            [](Comm& comm) {
                              if (comm.Rank() == 1) {
                                throw std::runtime_error("rank 1 died");
                              }
                            }),
               std::runtime_error);
}

TEST(RuntimeTest, CollectsPerRankMetrics) {
  auto result = Runtime::Run(3, [](Comm& comm) {
    mpimini::RankEnv* env = mpimini::CurrentEnv();
    ASSERT_NE(env, nullptr);
    EXPECT_EQ(env->rank, comm.Rank());
    instrument::TrackedBuffer<double> buf("field", 100);
  });
  ASSERT_EQ(result.ranks.size(), 3u);
  for (const auto& m : result.ranks) {
    EXPECT_EQ(m.peak_bytes, 100 * sizeof(double));
  }
  EXPECT_EQ(result.MaxPeakBytes(), 100 * sizeof(double));
  EXPECT_EQ(result.TotalPeakBytes(), 3 * 100 * sizeof(double));
}

TEST(PointToPointTest, SendRecvRoundTrip) {
  Runtime::Run(2, [](Comm& comm) {
    if (comm.Rank() == 0) {
      std::vector<int> data{1, 2, 3};
      comm.Send<int>(1, 7, data);
      auto back = comm.Recv<int>(1, 8);
      EXPECT_EQ(back, (std::vector<int>{4, 5, 6}));
    } else {
      auto data = comm.Recv<int>(0, 7);
      EXPECT_EQ(data, (std::vector<int>{1, 2, 3}));
      std::vector<int> reply{4, 5, 6};
      comm.Send<int>(0, 8, reply);
    }
  });
}

TEST(PointToPointTest, TagMatchingSkipsNonMatching) {
  Runtime::Run(2, [](Comm& comm) {
    if (comm.Rank() == 0) {
      comm.SendValue<int>(1, 1, 10);
      comm.SendValue<int>(1, 2, 20);
    } else {
      // Receive tag 2 first even though tag 1 arrived first.
      EXPECT_EQ(comm.RecvValue<int>(0, 2), 20);
      EXPECT_EQ(comm.RecvValue<int>(0, 1), 10);
    }
  });
}

TEST(PointToPointTest, FifoOrderPerChannel) {
  Runtime::Run(2, [](Comm& comm) {
    constexpr int kCount = 50;
    if (comm.Rank() == 0) {
      for (int i = 0; i < kCount; ++i) comm.SendValue<int>(1, 3, i);
    } else {
      for (int i = 0; i < kCount; ++i) {
        EXPECT_EQ(comm.RecvValue<int>(0, 3), i);
      }
    }
  });
}

TEST(PointToPointTest, AnySourceReceivesFromBoth) {
  Runtime::Run(3, [](Comm& comm) {
    if (comm.Rank() == 0) {
      int sum = 0;
      for (int i = 0; i < 2; ++i) {
        auto m = comm.RecvBytes(mpimini::kAnySource, 5);
        int v;
        std::memcpy(&v, m.payload.data(), sizeof(v));
        sum += v;
      }
      EXPECT_EQ(sum, 30);
    } else {
      comm.SendValue<int>(0, 5, comm.Rank() * 10);
    }
  });
}

TEST(PointToPointTest, ProbeReturnsSizeWithoutConsuming) {
  Runtime::Run(2, [](Comm& comm) {
    if (comm.Rank() == 0) {
      std::vector<double> data(17, 1.0);
      comm.Send<double>(1, 4, data);
    } else {
      EXPECT_EQ(comm.Probe(0, 4), 17 * sizeof(double));
      auto data = comm.Recv<double>(0, 4);
      EXPECT_EQ(data.size(), 17u);
    }
  });
}

TEST(PointToPointTest, HasMessageNonBlocking) {
  Runtime::Run(2, [](Comm& comm) {
    if (comm.Rank() == 0) {
      EXPECT_FALSE(comm.HasMessage(1, 99));
      comm.SendValue<int>(1, 6, 1);
      comm.Barrier();
    } else {
      comm.Barrier();
      EXPECT_TRUE(comm.HasMessage(0, 6));
      comm.RecvValue<int>(0, 6);
    }
  });
}

class CollectiveTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveTest, BarrierSynchronizes) {
  const int nranks = GetParam();
  std::atomic<int> arrived{0};
  Runtime::Run(nranks, [&](Comm& comm) {
    ++arrived;
    comm.Barrier();
    EXPECT_EQ(arrived.load(), nranks);
    comm.Barrier();
  });
}

TEST_P(CollectiveTest, BcastDeliversRootData) {
  const int nranks = GetParam();
  Runtime::Run(nranks, [](Comm& comm) {
    std::vector<double> data(8, comm.Rank() == 2 % comm.Size() ? 3.5 : 0.0);
    comm.Bcast(std::span<double>(data), 2 % comm.Size());
    for (double v : data) EXPECT_DOUBLE_EQ(v, 3.5);
  });
}

TEST_P(CollectiveTest, AllReduceSumMinMaxProd) {
  const int nranks = GetParam();
  Runtime::Run(nranks, [nranks](Comm& comm) {
    const double r = comm.Rank() + 1.0;
    EXPECT_DOUBLE_EQ(comm.AllReduceValue(r, Op::kSum),
                     nranks * (nranks + 1.0) / 2.0);
    EXPECT_DOUBLE_EQ(comm.AllReduceValue(r, Op::kMin), 1.0);
    EXPECT_DOUBLE_EQ(comm.AllReduceValue(r, Op::kMax),
                     static_cast<double>(nranks));
    double prod = 1.0;
    for (int i = 1; i <= nranks; ++i) prod *= i;
    EXPECT_DOUBLE_EQ(comm.AllReduceValue(r, Op::kProd), prod);
  });
}

TEST_P(CollectiveTest, AllReduceElementwiseVector) {
  const int nranks = GetParam();
  Runtime::Run(nranks, [nranks](Comm& comm) {
    std::vector<int> v{comm.Rank(), 2 * comm.Rank()};
    comm.AllReduce(std::span<int>(v), Op::kSum);
    const int s = nranks * (nranks - 1) / 2;
    EXPECT_EQ(v[0], s);
    EXPECT_EQ(v[1], 2 * s);
  });
}

TEST_P(CollectiveTest, GatherCollectsInRankOrder) {
  const int nranks = GetParam();
  Runtime::Run(nranks, [nranks](Comm& comm) {
    std::vector<int> mine{comm.Rank(), comm.Rank() + 100};
    auto all = comm.Gather<int>(mine, 0);
    if (comm.Rank() == 0) {
      ASSERT_EQ(all.size(), static_cast<std::size_t>(2 * nranks));
      for (int r = 0; r < nranks; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(2 * r)], r);
        EXPECT_EQ(all[static_cast<std::size_t>(2 * r + 1)], r + 100);
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(CollectiveTest, AllGatherOnEveryRank) {
  const int nranks = GetParam();
  Runtime::Run(nranks, [nranks](Comm& comm) {
    std::vector<int> mine{comm.Rank()};
    auto all = comm.AllGather<int>(mine);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)], r);
    }
  });
}

TEST_P(CollectiveTest, GatherBytesVariableSizes) {
  const int nranks = GetParam();
  Runtime::Run(nranks, [nranks](Comm& comm) {
    std::vector<std::byte> mine(static_cast<std::size_t>(comm.Rank()),
                                std::byte{0xAB});
    auto all = comm.GatherBytes(mine, nranks - 1);
    if (comm.Rank() == nranks - 1) {
      ASSERT_EQ(all.size(), static_cast<std::size_t>(nranks));
      for (int r = 0; r < nranks; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)].size(),
                  static_cast<std::size_t>(r));
      }
    }
  });
}

TEST_P(CollectiveTest, AllToAllBytesExchangesBlobs) {
  const int nranks = GetParam();
  Runtime::Run(nranks, [nranks](Comm& comm) {
    std::vector<std::vector<std::byte>> outgoing(
        static_cast<std::size_t>(nranks));
    for (int d = 0; d < nranks; ++d) {
      outgoing[static_cast<std::size_t>(d)].assign(
          static_cast<std::size_t>(comm.Rank() + 1),
          static_cast<std::byte>(d));
    }
    auto incoming = comm.AllToAllBytes(outgoing);
    for (int s = 0; s < nranks; ++s) {
      const auto& blob = incoming[static_cast<std::size_t>(s)];
      EXPECT_EQ(blob.size(), static_cast<std::size_t>(s + 1));
      for (std::byte b : blob) {
        EXPECT_EQ(b, static_cast<std::byte>(comm.Rank()));
      }
    }
  });
}

TEST_P(CollectiveTest, BackToBackCollectivesDoNotMix) {
  const int nranks = GetParam();
  Runtime::Run(nranks, [](Comm& comm) {
    for (int round = 0; round < 20; ++round) {
      const double v = comm.Rank() + round * 1000.0;
      const double expect_max = (comm.Size() - 1) + round * 1000.0;
      EXPECT_DOUBLE_EQ(comm.AllReduceValue(v, Op::kMax), expect_max);
    }
  });
}

TEST_P(CollectiveTest, AllReduceVectorsAgreeOnAllRanks) {
  const int nranks = GetParam();
  Runtime::Run(nranks, [](Comm& comm) {
    std::vector<int> v{comm.Rank(), comm.Rank() * 2, 1};
    comm.AllReduce(std::span<int>(v.data(), v.size()), Op::kSum);
    const int n = comm.Size();
    EXPECT_EQ(v[0], n * (n - 1) / 2);
    EXPECT_EQ(v[1], n * (n - 1));
    EXPECT_EQ(v[2], n);
  });
}

// Regression for the AllReduce satellite: AllReduce runs on its own internal
// tag, so interleaving it tightly with Barriers and other collectives must
// never mismatch messages, even when ranks run far ahead of each other.
TEST_P(CollectiveTest, AllReduceAndBarrierSequencesStayMatched) {
  const int nranks = GetParam();
  Runtime::Run(nranks, [](Comm& comm) {
    for (int round = 0; round < 25; ++round) {
      const int sum =
          comm.AllReduceValue(comm.Rank() + round, Op::kSum);
      const int n = comm.Size();
      EXPECT_EQ(sum, n * (n - 1) / 2 + round * n);
      comm.Barrier();
      const int mx = comm.AllReduceValue(comm.Rank(), Op::kMax);
      EXPECT_EQ(mx, n - 1);
      const int mn = comm.AllReduceValue(comm.Rank() - round, Op::kMin);
      EXPECT_EQ(mn, -round);
      comm.Barrier();
    }
  });
}

TEST(PointToPointTest, SendBufferMovesOwnershipWithoutCopy) {
  Runtime::Run(2, [](Comm& comm) {
    if (comm.Rank() == 0) {
      core::Buffer big("", 1 << 16);
      big.bytes()[123] = std::byte{0x7F};
      const std::byte* raw = big.data();
      core::ResetLocalBufferStats();
      comm.SendBuffer(1, 9, std::move(big));
      // The block moved into the mailbox: no bytes copied on the send side.
      EXPECT_EQ(core::LocalBufferStats().full_copies, 0u);
      EXPECT_GE(core::LocalBufferStats().moves, 1u);
      comm.SendValue<std::uintptr_t>(1, 10,
                                     reinterpret_cast<std::uintptr_t>(raw));
    } else {
      core::ResetLocalBufferStats();
      core::Buffer got = comm.RecvBuffer(0, 9);
      EXPECT_EQ(core::LocalBufferStats().full_copies, 0u);
      ASSERT_EQ(got.size(), std::size_t{1} << 16);
      EXPECT_EQ(got[123], std::byte{0x7F});
      // Same block end to end: the receiver sees the sender's allocation.
      const auto raw = comm.RecvValue<std::uintptr_t>(0, 10);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(got.data()), raw);
    }
  });
}

TEST(PointToPointTest, SendGatherPacksChainOnce) {
  Runtime::Run(2, [](Comm& comm) {
    if (comm.Rank() == 0) {
      core::Buffer a("", 4096);
      core::Buffer b("", 4096);
      a.bytes()[0] = std::byte{1};
      b.bytes()[4095] = std::byte{2};
      core::BufferChain chain;
      chain.Append(core::BufferView(a));
      chain.Append(core::BufferView(b));
      core::ResetLocalBufferStats();
      comm.SendGather(1, 9, chain);
      // Exactly one full-field copy: the transport-boundary pack.
      EXPECT_EQ(core::LocalBufferStats().full_copies, 1u);
    } else {
      core::Buffer got = comm.RecvBuffer(0, 9);
      ASSERT_EQ(got.size(), 8192u);
      EXPECT_EQ(got[0], std::byte{1});
      EXPECT_EQ(got[8191], std::byte{2});
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveTest,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(SplitTest, PartitionsByColor) {
  Runtime::Run(6, [](Comm& comm) {
    const int color = comm.Rank() % 2;
    Comm sub = comm.Split(color, comm.Rank());
    ASSERT_TRUE(sub.Valid());
    EXPECT_EQ(sub.Size(), 3);
    // Even world ranks 0,2,4 -> sub ranks 0,1,2; same for odd.
    EXPECT_EQ(sub.Rank(), comm.Rank() / 2);
    // The sub-communicator works for collectives.
    const int sum = sub.AllReduceValue(comm.Rank(), Op::kSum);
    EXPECT_EQ(sum, color == 0 ? 0 + 2 + 4 : 1 + 3 + 5);
  });
}

TEST(SplitTest, KeyControlsOrdering) {
  Runtime::Run(4, [](Comm& comm) {
    // Reverse ordering via descending keys.
    Comm sub = comm.Split(0, -comm.Rank());
    EXPECT_EQ(sub.Rank(), comm.Size() - 1 - comm.Rank());
  });
}

TEST(SplitTest, NegativeColorYieldsInvalidComm) {
  Runtime::Run(3, [](Comm& comm) {
    Comm sub = comm.Split(comm.Rank() == 0 ? -1 : 0, 0);
    if (comm.Rank() == 0) {
      EXPECT_FALSE(sub.Valid());
    } else {
      ASSERT_TRUE(sub.Valid());
      EXPECT_EQ(sub.Size(), 2);
    }
  });
}

TEST(SplitTest, SimEndpointPartitionFourToOne) {
  // The paper's in transit layout: 4 simulation ranks per endpoint rank.
  Runtime::Run(5, [](Comm& comm) {
    const bool endpoint = comm.Rank() >= 4;
    Comm group = comm.Split(endpoint ? 1 : 0, comm.Rank());
    EXPECT_EQ(group.Size(), endpoint ? 1 : 4);
  });
}

TEST(ErrorTest, SendToInvalidRankThrows) {
  Runtime::Run(2, [](Comm& comm) {
    if (comm.Rank() == 0) {
      int v = 0;
      EXPECT_THROW(comm.SendValue<int>(7, 0, v), std::runtime_error);
    }
  });
}

TEST(ErrorTest, InvalidCommThrows) {
  Comm comm;
  EXPECT_FALSE(comm.Valid());
  EXPECT_THROW(comm.Barrier(), std::runtime_error);
}


// ---- Stress / property ------------------------------------------------------

TEST(StressTest, RingPipelineWithVaryingSizes) {
  // Each rank forwards growing payloads around a ring for many rounds;
  // verifies ordering, integrity, and absence of deadlock under load.
  Runtime::Run(5, [](Comm& comm) {
    const int next = (comm.Rank() + 1) % comm.Size();
    const int prev = (comm.Rank() + comm.Size() - 1) % comm.Size();
    for (int round = 1; round <= 40; ++round) {
      std::vector<std::int64_t> payload(
          static_cast<std::size_t>(round * 7 + comm.Rank()));
      for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = round * 1000 + static_cast<std::int64_t>(i);
      }
      comm.Send<std::int64_t>(next, 11, payload);
      auto got = comm.Recv<std::int64_t>(prev, 11);
      ASSERT_EQ(got.size(), static_cast<std::size_t>(round * 7 + prev));
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], round * 1000 + static_cast<std::int64_t>(i));
      }
    }
  });
}

TEST(StressTest, InterleavedCollectivesAndP2P) {
  // Collectives interleaved with point-to-point traffic on user tags must
  // not cross wires (internal tags are segregated).
  Runtime::Run(4, [](Comm& comm) {
    for (int round = 0; round < 25; ++round) {
      if (comm.Rank() == 0) {
        comm.SendValue<int>(3, 77, round);
      }
      const double sum = comm.AllReduceValue(1.0, Op::kSum);
      EXPECT_DOUBLE_EQ(sum, 4.0);
      if (comm.Rank() == 3) {
        EXPECT_EQ(comm.RecvValue<int>(0, 77), round);
      }
      comm.Barrier();
    }
  });
}

TEST(StressTest, LargeMessageIntegrity) {
  Runtime::Run(2, [](Comm& comm) {
    constexpr std::size_t kCount = 1 << 20;  // 8 MiB of doubles
    if (comm.Rank() == 0) {
      std::vector<double> data(kCount);
      for (std::size_t i = 0; i < kCount; ++i) {
        data[i] = static_cast<double>(i) * 0.5;
      }
      comm.Send<double>(1, 1, data);
    } else {
      auto data = comm.Recv<double>(0, 1);
      ASSERT_EQ(data.size(), kCount);
      EXPECT_DOUBLE_EQ(data[0], 0.0);
      EXPECT_DOUBLE_EQ(data[kCount - 1], (kCount - 1) * 0.5);
      EXPECT_DOUBLE_EQ(data[kCount / 2], (kCount / 2) * 0.5);
    }
  });
}

TEST(StressTest, TracerRingDropCountersIsolatedAcrossConcurrentFeeders) {
  // Eight rank threads concurrently hammer their own per-rank tracer rings.
  // The rings are lock-free single-owner structures; this pins that the
  // drop bookkeeping stays exact per rank with no cross-thread bleed.
  constexpr std::size_t kRing = 8;
  constexpr int kSpans = 100;
  mpimini::RunSettings settings;
  settings.trace = true;
  settings.tracer.span_capacity = kRing;
  auto result = Runtime::Run(8, settings, [](Comm& comm) {
    for (int s = 0; s < kSpans + comm.Rank(); ++s) {
      instrument::Span span("solver.step");
    }
  });
  ASSERT_EQ(result.tracers.size(), 8u);
  for (int r = 0; r < 8; ++r) {
    const auto& tracer = *result.tracers[static_cast<std::size_t>(r)];
    const auto expected = static_cast<std::uint64_t>(kSpans + r);
    EXPECT_EQ(tracer.TotalSpans(), expected) << "rank " << r;
    EXPECT_EQ(tracer.DroppedSpans(), expected - kRing) << "rank " << r;
    EXPECT_EQ(tracer.RetainedSpans(), kRing) << "rank " << r;
  }
}

// ---- Clock-offset calibration (DESIGN.md §5d) -------------------------------

TEST(ClockSyncTest, ZeroSkewEstimateWithinHalfMinRtt) {
  // Ranks are threads sharing one steady_clock, so the true offset is 0 ns:
  // the returned estimate must itself sit inside the documented error bound
  // |error| <= min_rtt / 2 (+1 ns slack for the integer halving).
  Runtime::Run(4, [](Comm& comm) {
    const mpimini::ClockSync sync = mpimini::CalibrateClockOffset(comm);
    if (comm.Rank() == 0) {
      // The root defines the global timeline.
      EXPECT_EQ(sync.offset_ns, 0);
      EXPECT_EQ(sync.min_rtt_ns, 0);
    } else {
      EXPECT_GT(sync.min_rtt_ns, 0);
      EXPECT_EQ(sync.rounds, 8);
      EXPECT_LE(std::llabs(sync.offset_ns), sync.min_rtt_ns / 2 + 1);
    }
  });
}

TEST(ClockSyncTest, RecoversInjectedSkewWithinHalfMinRtt) {
  // A rank whose virtual clock runs 5 ms ahead must calibrate to an offset
  // of ~-5 ms, wrong by at most half its minimum round trip — Cristian's
  // bound, since only the RTT's split between directions is unknowable.
  constexpr std::int64_t kSkewNs = 5'000'000;
  Runtime::Run(2, [](Comm& comm) {
    const std::int64_t skew = comm.Rank() == 1 ? kSkewNs : 0;
    const mpimini::ClockSync sync =
        mpimini::CalibrateClockOffset(comm, /*root=*/0, /*rounds=*/8, skew);
    if (comm.Rank() == 1) {
      EXPECT_LE(std::llabs(sync.offset_ns + kSkewNs),
                sync.min_rtt_ns / 2 + 1);
    }
  });
}

TEST(ClockSyncTest, TwoGroupWorldCalibrationAlignsSkewedEndpointGroup) {
  // The in transit shape: the world splits into a sim group and an endpoint
  // group (separate jobs on separate nodes in a real deployment — their
  // unrelated clock epochs simulated by skewing every endpoint rank 3 ms
  // ahead).  Calibration runs over the WORLD communicator, so both groups
  // land on world rank 0's timeline, and each skewed rank's offset must
  // recover its skew within min_rtt / 2.  After calibration an endpoint
  // rank can place a sim-side timestamp on its own corrected timeline to
  // within the same bound.
  constexpr std::int64_t kEndpointSkewNs = 3'000'000;
  Runtime::Run(6, [](Comm& world) {
    const bool is_endpoint = world.Rank() >= 4;
    Comm group = world.Split(is_endpoint ? 1 : 0, world.Rank());
    ASSERT_EQ(group.Size(), is_endpoint ? 2 : 4);
    const std::int64_t skew = is_endpoint ? kEndpointSkewNs : 0;
    const mpimini::ClockSync sync =
        mpimini::CalibrateClockOffset(world, /*root=*/0, /*rounds=*/8, skew);
    if (world.Rank() == 0) {
      EXPECT_EQ(sync.offset_ns, 0);
    } else {
      EXPECT_LE(std::llabs(sync.offset_ns + skew), sync.min_rtt_ns / 2 + 1);
    }
  });
}

TEST(ClockSyncTest, RejectsBadArguments) {
  Runtime::Run(2, [](Comm& comm) {
    EXPECT_THROW(mpimini::CalibrateClockOffset(comm, /*root=*/2),
                 std::invalid_argument);
    EXPECT_THROW(
        mpimini::CalibrateClockOffset(comm, /*root=*/0, /*rounds=*/0),
        std::invalid_argument);
  });
}

TEST(StressTest, NestedSplitsFormConsistentSubgroups) {
  Runtime::Run(8, [](Comm& comm) {
    Comm half = comm.Split(comm.Rank() / 4, comm.Rank());
    ASSERT_EQ(half.Size(), 4);
    Comm quarter = half.Split(half.Rank() / 2, half.Rank());
    ASSERT_EQ(quarter.Size(), 2);
    // Each leaf group sums its two world ranks.
    const int sum = quarter.AllReduceValue(comm.Rank(), Op::kSum);
    const int base = (comm.Rank() / 2) * 2;
    EXPECT_EQ(sum, base + base + 1);
  });
}

}  // namespace
