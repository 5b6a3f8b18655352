#include "os/swpt_driver.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/cost_model.hh"
#include "sim/assert.hh"

namespace cdna::os {

using core::CostModel;

SwptDriver::SwptDriver(sim::SimContext &ctx, std::string name,
                       vmm::Domain &dom, vmm::SwptValidator &validator,
                       net::MacAddr mac)
    : sim::SimObject(ctx, std::move(name)),
      dom_(dom),
      validator_(validator),
      mac_(mac)
{
}

void
SwptDriver::attach()
{
    auto &mem = dom_.hypervisor().mem();
    // The guest-resident descriptor rings (the pages the guest writes
    // real Intel descriptors into; the validator reads them on a trap).
    (void)mem.allocOne(dom_.id());
    (void)mem.allocOne(dom_.id());

    gid_ = validator_.addGuest(dom_, mac_, [this] { handleIrq(); });

    // Post guest-owned RX buffers through the validated doorbell path.
    std::vector<mem::PageNum> bufs;
    bufs.reserve(kRxBufs);
    for (std::uint32_t i = 0; i < kRxBufs; ++i)
        bufs.push_back(mem.allocOne(dom_.id()));
    validator_.rxDoorbell(gid_, bufs);
}

void
SwptDriver::detach()
{
    if (detached_)
        return;
    detached_ = true;
    dropStaged();
    validator_.detachGuest(gid_);
}

bool
SwptDriver::canTransmit() const
{
    return !detached_ && staged().size() < kQdiscLimit;
}

void
SwptDriver::flush()
{
    if (flushPending_ || staged().empty() || detached_)
        return;
    std::uint32_t outstanding = txPosted_ - txCompleted_;
    std::uint32_t window = kTxWindow - std::min(kTxWindow, outstanding);
    std::uint32_t n = std::min<std::uint32_t>(
        static_cast<std::uint32_t>(staged().size()), window);
    if (n == 0)
        return; // retried when completions drain
    flushPending_ = true;
    // Write n descriptors into the guest ring, one doorbell PIO.
    sim::Time cost = n * CostModel::drvTxPerPacket + CostModel::drvPioWrite;
    dom_.vcpu().post(cpu::Bucket::kOs, cost, [this, n] {
        flushPending_ = false;
        doFlush(n);
    });
}

void
SwptDriver::doFlush(std::uint32_t n)
{
    if (detached_)
        return;
    std::uint32_t outstanding = txPosted_ - txCompleted_;
    std::uint32_t window = kTxWindow - std::min(kTxWindow, outstanding);
    n = std::min({n, window, static_cast<std::uint32_t>(staged().size())});
    if (n == 0)
        return;
    std::vector<vmm::SwptValidator::TxReq> batch;
    batch.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        net::Packet pkt = takeStaged();
        vmm::SwptValidator::TxReq req;
        req.sg = std::move(pkt.hostSg);
        req.pkt = std::move(pkt);
        batch.push_back(std::move(req));
        ++txPosted_;
        nTxPkts_.inc();
    }
    validator_.txDoorbell(gid_, std::move(batch));
    wakeIfRoom();
}

void
SwptDriver::handleIrq()
{
    nIrqsHandled_.inc();
    std::uint32_t ncomp = validator_.takeCompletions(gid_, compTaken_);
    std::uint32_t n = validator_.takeRx(gid_, rxTaken_);

    sim::Time cost = CostModel::drvIrqHandler +
        ncomp * CostModel::drvTxCompletion +
        static_cast<sim::Time>(n) * CostModel::drvRxPerPacket;
    if (n != 0)
        cost += CostModel::drvPioWrite; // RX buffer re-post doorbell

    dom_.vcpu().post(cpu::Bucket::kOs, cost, [this, ncomp, n] {
        txCompleted_ += ncomp;
        for (std::uint32_t i = 0; i < ncomp; ++i) {
            std::uint64_t bytes = compTaken_.front();
            compTaken_.pop_front();
            if (bytes > 0)
                deliverTxComplete(bytes);
        }

        for (std::uint32_t i = 0; i < n; ++i) {
            net::Packet pkt = std::move(rxTaken_.front());
            rxTaken_.pop_front();
            nRxPkts_.inc();
            recycle_.push_back(mem::pageOf(pkt.hostSg[0].addr));
            deliverRx(std::move(pkt));
        }
        if (!recycle_.empty() && !detached_)
            validator_.rxDoorbell(gid_, recycle_);
        recycle_.clear();

        if (!staged().empty())
            flush();
        wakeIfRoom();
    });
}

} // namespace cdna::os
