/**
 * @file
 * Self time from a multi-threaded span trace.
 *
 * The program's spans (obs::TraceSession) are inclusive: a span's
 * duration covers its children.  The benchmark needs the opposite --
 * where the wall time went, each instant counted once -- so it
 * decomposes the traced interval as follows.
 *
 * On one thread a span's self time is its duration minus the time
 * its children on that thread cover.  Across threads, a thread that
 * hands work to a pool waits inside its own span while the pool's
 * threads run theirs; the waiting span must not be charged.  Each
 * non-root thread is therefore given a parent thread: the owner of
 * the smallest span on another thread that contains the thread's
 * whole activity window (the pool's creator), or the root thread
 * when no such span exists.  At every instant the innermost open
 * span of each thread is charged, except on a thread that has a
 * descendant thread with an open span (it is waiting); the instant
 * is split evenly among the charged spans.  Instants with no charged
 * span are uncovered.  The charged time plus the uncovered time is
 * exactly the traced wall interval.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <map>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    std::string name;
    double start_s = 0;
    double end_s = 0;
    int tid = 0;
    /** Nesting depth on its thread (0 = top level); orders spans
     *  that share a timestamp. */
    int depth = 0;
};

struct SelfTimes
{
    /** Wall seconds charged to each span name. */
    std::map<std::string, double> by_name;
    /** Wall seconds of [begin_s, end_s) no span was charged for. */
    double uncovered_s = 0;
};

/**
 * Decompose the wall interval [begin_s, end_s) over `spans` as the
 * file comment describes.  Spans are clipped to the interval; spans
 * of one thread must nest (as obs spans do).  `root_tid` is the
 * thread that drives the run.
 */
SelfTimes selfTimes(const std::vector<Span> &spans, int root_tid,
                    double begin_s, double end_s);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
