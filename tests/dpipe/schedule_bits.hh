/**
 * @file
 * Bitwise equality assertions for DPipe schedules and plans: every
 * double is compared by its bit pattern, not by value, so a change
 * in arithmetic order that moves a last bit fails.
 */

#ifndef TRANSFUSION_TESTS_DPIPE_SCHEDULE_BITS_HH
#define TRANSFUSION_TESTS_DPIPE_SCHEDULE_BITS_HH

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "dpipe/pipeline.hh"

namespace transfusion::dpipe
{

inline std::uint64_t
bitsOf(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

#define EXPECT_SAME_BITS(a, b) EXPECT_EQ(bitsOf(a), bitsOf(b)) << #a

inline void
expectSameSchedule(const Schedule &a, const Schedule &b)
{
    EXPECT_SAME_BITS(a.makespan, b.makespan);
    EXPECT_SAME_BITS(a.busy_2d, b.busy_2d);
    EXPECT_SAME_BITS(a.busy_1d, b.busy_1d);
    ASSERT_EQ(a.placements.size(), b.placements.size());
    for (std::size_t i = 0; i < a.placements.size(); ++i) {
        SCOPED_TRACE("placement " + std::to_string(i));
        EXPECT_EQ(a.placements[i].op, b.placements[i].op);
        EXPECT_EQ(a.placements[i].pe, b.placements[i].pe);
        EXPECT_SAME_BITS(a.placements[i].start, b.placements[i].start);
        EXPECT_SAME_BITS(a.placements[i].end, b.placements[i].end);
    }
}

inline void
expectSamePlan(const PipelineResult &a, const PipelineResult &b)
{
    EXPECT_SAME_BITS(a.total_seconds, b.total_seconds);
    EXPECT_SAME_BITS(a.steady_epoch_seconds, b.steady_epoch_seconds);
    EXPECT_SAME_BITS(a.fill_seconds, b.fill_seconds);
    EXPECT_SAME_BITS(a.drain_seconds, b.drain_seconds);
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.pipelined, b.pipelined);
    EXPECT_EQ(a.partition.in_first, b.partition.in_first);
    EXPECT_SAME_BITS(a.work.ops_2d, b.work.ops_2d);
    EXPECT_SAME_BITS(a.work.ops_1d, b.work.ops_1d);
    EXPECT_SAME_BITS(a.work.busy_2d_s, b.work.busy_2d_s);
    EXPECT_SAME_BITS(a.work.busy_1d_s, b.work.busy_1d_s);
    expectSameSchedule(a.steady_schedule, b.steady_schedule);
}

} // namespace transfusion::dpipe

#endif // TRANSFUSION_TESTS_DPIPE_SCHEDULE_BITS_HH
