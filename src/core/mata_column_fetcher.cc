#include "core/mata_column_fetcher.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sparch
{

MataColumnFetcher::MataColumnFetcher(const SpArchConfig &config,
                                     mem::MemoryModel &mem)
    : config_(&config), mem_(&mem)
{}

void
MataColumnFetcher::startRound(const std::vector<MultTask> *tasks,
                              const PortQueues *port_queues, Bytes a_base,
                              Bytes rowptr_bytes, Cycle now)
{
    tasks_ = tasks;
    port_queues_ = port_queues;
    a_base_ = a_base;
    arrived_.assign(tasks ? tasks->size() : 0, false);
    issued_.assign(port_queues ? port_queues->size() : 0, 0);
    retired_.assign(port_queues ? port_queues->size() : 0, 0);
    round_start_ = now;
    queued_total_ = 0;
    issued_total_ = 0;
    eligible_.resize(port_queues ? port_queues->size() : 0);
    landed_.resize(port_queues ? port_queues->size() : 0);
    landed_any_ = false;
    // A port has at most aElementWindow elements in flight.
    std::size_t window = 0;
    if (port_queues != nullptr) {
        for (unsigned p = 0; p < port_queues->size(); ++p) {
            const auto &queue = (*port_queues)[p];
            queued_total_ += queue.size();
            window += std::min<std::size_t>(queue.size(),
                                            config_->aElementWindow);
            refreshEligible(p);
        }
    }
    inflight_.reset(window);

    // Row-pointer metadata for the selected columns streams in at the
    // start of the round.
    if (rowptr_bytes > 0)
        mem_->read(DramStream::MatA, 0, rowptr_bytes, now);
}

void
MataColumnFetcher::releaseRound()
{
    tasks_ = nullptr;
    port_queues_ = nullptr;
    decltype(arrived_)().swap(arrived_);
}

bool
MataColumnFetcher::clockUpdate(Cycle now)
{
    if (tasks_ == nullptr || port_queues_ == nullptr)
        return false;

    // Land completed reads.
    bool moved =
        inflight_.land(now, [this](std::uint32_t pos, std::uint32_t port) {
            arrived_[pos] = true;
            landed_.set(port);
        });
    landed_any_ |= moved;

    // Issue new element reads, round-robin across the column
    // fetchers; each runs a bounded window ahead of its consumer.
    const auto n_ports = static_cast<unsigned>(port_queues_->size());
    if (n_ports == 0)
        return moved;
    if (issued_total_ < queued_total_) {
        const auto rr_port =
            static_cast<unsigned>((now - round_start_) % n_ports);
        unsigned budget = config_->mataFetchWidth;
        unsigned scanned = 0;
        bool issued_any = false;
        const auto ineligible = [&](std::size_t w) {
            return ~eligible_.word(w);
        };
        while (budget > 0 && scanned < n_ports) {
            unsigned p = rr_port + scanned;
            if (p >= n_ports)
                p -= n_ports;
            const unsigned run =
                wrappedRun(ineligible, p, n_ports, n_ports - scanned);
            if (run > 0) {
                for (unsigned k = 0, q = p; k < run; ++k) {
                    SPARCH_DCHECK(!canIssue(q), "eligible port ", q,
                                  " skipped");
                    q = q + 1 == n_ports ? 0 : q + 1;
                }
                scanned += run;
                continue;
            }
            SPARCH_DCHECK(canIssue(p), "ineligible port ", p,
                          " issued");
            const std::uint32_t pos = (*port_queues_)[p][issued_[p]];
            const Bytes addr =
                a_base_ +
                static_cast<Bytes>((*tasks_)[pos].nz) * bytesPerElement;
            const Cycle ready =
                mem_->read(DramStream::MatA, addr, bytesPerElement, now);
            inflight_.add(now, ready, pos, p);
            ++issued_[p];
            refreshEligible(p);
            ++issued_total_;
            ++elements_fetched_;
            --budget;
            issued_any = true;
        }
        if (issued_any) {
            ++issue_cycles_;
            moved = true;
        }
    }
    return moved;
}

void
MataColumnFetcher::recordStats(StatSet &stats) const
{
    stats.set("mata_fetcher.elements_fetched",
              static_cast<double>(elements_fetched_));
    stats.set("mata_fetcher.issue_cycles",
              static_cast<double>(issue_cycles_));
}

} // namespace sparch
