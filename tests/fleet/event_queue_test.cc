/**
 * @file
 * Tests for the fleet event queue's total order: at one virtual
 * time a Fault pops before an Arrival before a Tick, then lower
 * replica index, then lower request id — the tie-break contract
 * fleet/event_queue.hh states.  Stale entries are dropped by peek.
 */

#include <vector>

#include <gtest/gtest.h>

#include "fleet/event_queue.hh"

namespace transfusion::fleet
{
namespace
{

/** Peek-and-pop every event (all valid), in pop order. */
std::vector<FleetEvent>
drain(FleetEventQueue &q)
{
    std::vector<FleetEvent> out;
    const FleetEvent *taken = nullptr;
    while (true) {
        // Each peeked event is invalidated once, so the next peek
        // discards it and surfaces its successor.
        const auto e = q.peek([&](const FleetEvent &c) {
            return taken == nullptr || !(c.time == taken->time
                                         && c.kind == taken->kind
                                         && c.replica == taken->replica
                                         && c.request_id
                                             == taken->request_id);
        });
        if (!e)
            return out;
        out.push_back(*e);
        taken = &out.back();
    }
}

TEST(FleetEventQueue, TiesBreakFaultThenArrivalThenTick)
{
    FleetEventQueue q;
    q.push({ 1.0, FleetEventKind::Tick, -1, -1 });
    q.push({ 1.0, FleetEventKind::Arrival, -1, 7 });
    q.push({ 1.0, FleetEventKind::Arrival, -1, 3 });
    q.push({ 1.0, FleetEventKind::Fault, 2, -1 });
    q.push({ 1.0, FleetEventKind::Fault, 0, -2 });
    q.push({ 0.5, FleetEventKind::Tick, -1, -1 });
    const auto got = drain(q);
    ASSERT_EQ(got.size(), 6u);
    EXPECT_EQ(got[0].time, 0.5);
    EXPECT_EQ(got[1].kind, FleetEventKind::Fault);
    EXPECT_EQ(got[1].replica, 0);
    EXPECT_EQ(got[2].kind, FleetEventKind::Fault);
    EXPECT_EQ(got[2].replica, 2);
    EXPECT_EQ(got[3].kind, FleetEventKind::Arrival);
    EXPECT_EQ(got[3].request_id, 3);
    EXPECT_EQ(got[4].kind, FleetEventKind::Arrival);
    EXPECT_EQ(got[4].request_id, 7);
    EXPECT_EQ(got[5].kind, FleetEventKind::Tick);
    EXPECT_TRUE(q.empty());
}

} // namespace
} // namespace transfusion::fleet
