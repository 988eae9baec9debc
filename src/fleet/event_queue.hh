/**
 * @file
 * Deterministic min-heap event queue for the fleet loop.
 *
 * The queue keeps one entry per *source* (each replica's next
 * fault boundary, the trace front, the re-offer front) and pops
 * the minimum under the total order
 *
 *     (virtual_time, kind_rank, replica_index, request_id)
 *
 * with kind ranks Fault(0) < Arrival(1) < Tick(2).  That is the
 * fleet's tie-break contract at one shared boundary `t`: fault
 * transitions apply before arrivals are routed, and arrivals
 * before the autoscaler ticks.  The fleet loop applies every kind
 * due at `t` in that fixed order whichever source produced the
 * minimum, so only the selected time is observable; the full
 * tuple keeps the pop order a strict total order (deterministic
 * across library implementations).
 *
 * Staleness is handled lazily: sources re-push an entry whenever
 * their front changes, and peek() discards entries that no longer
 * match their source (the caller supplies the validity predicate).
 * Per-source monotonicity (fault boundaries strictly increase,
 * consumed arrivals never return) makes "matches the current
 * front" a sound staleness test.
 */

#ifndef TRANSFUSION_FLEET_EVENT_QUEUE_HH
#define TRANSFUSION_FLEET_EVENT_QUEUE_HH

#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

namespace transfusion::fleet
{

/** Event source class; the rank breaks time ties. */
enum class FleetEventKind : int
{
    Fault = 0,   ///< one replica's next down-span boundary
    Arrival = 1, ///< trace front or matured re-offer front
    Tick = 2,    ///< autoscaler tick (usually merged separately)
};

/** One candidate boundary for the shared fleet clock. */
struct FleetEvent
{
    double time = 0;
    FleetEventKind kind = FleetEventKind::Arrival;
    /** Source replica; -1 for fleet-wide sources. */
    int replica = -1;
    /** Arrival id for request events; -1 otherwise. */
    std::int64_t request_id = -1;
};

/** Lexicographic (time, kind, replica, request_id) — min first. */
inline bool
eventAfter(const FleetEvent &a, const FleetEvent &b)
{
    if (a.time != b.time)
        return a.time > b.time;
    if (a.kind != b.kind)
        return static_cast<int>(a.kind) > static_cast<int>(b.kind);
    if (a.replica != b.replica)
        return a.replica > b.replica;
    return a.request_id > b.request_id;
}

/**
 * Min-heap of FleetEvents with lazy invalidation.  push() is
 * O(log n); peek() discards stale entries (amortized O(log n) per
 * discarded entry) and returns the earliest still-valid one
 * without consuming it — the fleet loop advances to its time and
 * lets the sources re-arm.
 */
class FleetEventQueue
{
  public:
    void push(const FleetEvent &e) { heap_.push(e); }

    /**
     * Earliest event for which `stillValid(event)` holds, or
     * nullopt when the queue runs dry.  Invalid entries are
     * dropped permanently — a source whose front changed has
     * already re-pushed its replacement.
     */
    template <class Pred>
    std::optional<FleetEvent> peek(Pred &&stillValid)
    {
        while (!heap_.empty()) {
            const FleetEvent e = heap_.top();
            if (stillValid(e))
                return e;
            heap_.pop();
        }
        return std::nullopt;
    }

    std::size_t size() const { return heap_.size(); }
    bool empty() const { return heap_.empty(); }

  private:
    struct After
    {
        bool operator()(const FleetEvent &a,
                        const FleetEvent &b) const
        {
            return eventAfter(a, b);
        }
    };
    std::priority_queue<FleetEvent, std::vector<FleetEvent>, After>
        heap_;
};

} // namespace transfusion::fleet

#endif // TRANSFUSION_FLEET_EVENT_QUEUE_HH
