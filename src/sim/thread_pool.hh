/**
 * @file
 * Thread pool for running independent simulations.
 *
 * The sweep runner executes many fully isolated System instances; all
 * it needs from a pool is "run tasks 0..n-1 on k threads, balancing
 * load".  The workers share one atomic next-task index: a worker that
 * finishes a run takes the next unstarted one, so stragglers (e.g. a
 * 24-guest run next to a 1-guest run) do not serialize the sweep.
 *
 * With one thread the tasks run inline on the calling thread, so a
 * `-j1` sweep is byte-for-byte the sequential program.
 */

#ifndef CDNA_SIM_THREAD_POOL_HH
#define CDNA_SIM_THREAD_POOL_HH

#include <cstddef>
#include <functional>

namespace cdna::sim {

/**
 * Run @p fn(i) for every i in [0, n), using up to @p threads workers.
 *
 * Blocks until every task has completed.  Each worker repeatedly
 * claims the lowest unstarted index.  The first exception thrown by a
 * task is rethrown here after all workers have stopped.
 *
 * @param threads  worker count; clamped to [1, n].  1 means inline.
 * @param n        number of tasks
 * @param fn       task body; called exactly once per index
 */
void parallelFor(unsigned threads, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

/** Reasonable default worker count: the hardware concurrency, >= 1. */
unsigned defaultThreadCount();

} // namespace cdna::sim

#endif // CDNA_SIM_THREAD_POOL_HH
