#include "sim/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace cdna::sim {

unsigned
defaultThreadCount()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
parallelFor(unsigned threads, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    unsigned workers = std::max(1u, threads);
    workers = static_cast<unsigned>(
        std::min<std::size_t>(workers, n));

    if (workers == 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex errMu;
    std::exception_ptr firstError;

    auto workerBody = [&] {
        // Results are index-addressed, so which worker runs a task
        // never changes the output.
        for (;;) {
            std::size_t task = next.fetch_add(1);
            if (task >= n)
                return;
            try {
                fn(task);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errMu);
                if (!firstError)
                    firstError = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(workerBody);
    for (auto &t : pool)
        t.join();

    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace cdna::sim
