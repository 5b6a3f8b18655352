#include "os/native_driver.hh"

#include <algorithm>
#include <utility>

#include "core/cost_model.hh"
#include "sim/assert.hh"

namespace cdna::os {

using core::CostModel;

NativeDriver::NativeDriver(sim::SimContext &ctx, std::string name,
                           vmm::Domain &dom, nic::IntelNic &nic,
                           IrqRoute route, net::MacAddr mac)
    : sim::SimObject(ctx, std::move(name)),
      dom_(dom),
      nic_(nic),
      route_(route),
      mac_(mac)
{
}

void
NativeDriver::attach()
{
    auto &mem = dom_.hypervisor().mem();
    mem::PageNum tx_ring_page = mem.allocOne(dom_.id());
    mem::PageNum rx_ring_page = mem.allocOne(dom_.id());
    mem::PageNum status_page = mem.allocOne(dom_.id());

    nic_.configureTxRing(256, mem::addrOf(tx_ring_page));
    nic_.configureRxRing(256, mem::addrOf(rx_ring_page));
    nic_.setStatusBlockAddr(mem::addrOf(status_page));
    nic_.setMac(mac_);
    nic_.setDmaDomain(dom_.id());

    // Post one page-sized buffer per RX descriptor.
    std::uint32_t entries = nic_.rxRing().size();
    for (std::uint32_t i = 0; i < entries; ++i)
        postRxBuffer(mem.allocOne(dom_.id()));
    nic_.pioWriteRxProducer(rxProducer_);
    rxPioPending_ = false;

    if (route_ == IrqRoute::kViaHypervisor) {
        irqChannel_ = &dom_.hypervisor().createChannel(
            dom_, CostModel::irqEntry, [this] { handleIrq(); });
        nic_.setIrqLine([this] {
            auto &hv = dom_.hypervisor();
            hv.physicalInterrupt(hv.params().virtIrqDeliver,
                                 [this] { irqChannel_->notify(); });
        });
    } else {
        nic_.setIrqLine([this] { onIrq(); });
    }
}

void
NativeDriver::onIrq()
{
    // Direct routing (native OS): the IRQ lands on the vCPU.  Merge
    // while a handler invocation is still queued (NAPI-style).
    if (irqTaskPending_)
        return;
    irqTaskPending_ = true;
    dom_.virtIrqs().inc();
    dom_.vcpu().postIrq(cpu::Bucket::kOs, CostModel::irqEntry, [this] {
        irqTaskPending_ = false;
        handleIrq();
    });
}

void
NativeDriver::handleIrq()
{
    nIrqsHandled_.inc();
    // Snapshot completion state (reads of the DMA'd status block) and
    // claim it immediately so an overlapping IRQ cannot double-count.
    std::uint32_t completed = nic_.txConsumer() - txDrained_;
    txDrained_ += completed;
    auto frames = nic_.drainRx();

    sim::Time cost = CostModel::drvIrqHandler +
        completed * CostModel::drvTxCompletion +
        static_cast<sim::Time>(frames.size()) * CostModel::drvRxPerPacket;

    dom_.vcpu().post(cpu::Bucket::kOs, cost,
                     [this, completed, frames = std::move(frames)]() mutable {
        for (std::uint32_t i = 0; i < completed; ++i) {
            SIM_ASSERT(!txInflightBytes_.empty(), "completion underflow");
            std::uint64_t bytes = txInflightBytes_.front();
            txInflightBytes_.pop_front();
            deliverTxComplete(bytes);
        }

        for (auto &pkt : frames) {
            nRxPkts_.inc();
            // Recycle the buffer once the stack copies out; a backend
            // owner flips it away instead and must refill.
            if (autoRefill_)
                postRxBuffer(mem::pageOf(pkt.hostSg[0].addr));
            deliverRx(std::move(pkt));
        }
        flushRxProducer();

        // Pump any transmits that were waiting for ring space.
        if (!staged().empty())
            flush();
        wakeIfRoom();
    });
}

bool
NativeDriver::canTransmit() const
{
    return staged().size() < kQdiscLimit;
}

void
NativeDriver::flush()
{
    if (flushPending_ || staged().empty())
        return;
    std::uint32_t ring_space =
        nic_.txRing().size() - (txProducer_ - nic_.txConsumer());
    std::uint32_t n = std::min<std::uint32_t>(
        static_cast<std::uint32_t>(staged().size()), ring_space);
    if (n == 0)
        return; // retried from the completion handler
    flushPending_ = true;
    sim::Time cost = n * CostModel::drvTxPerPacket + CostModel::drvPioWrite;
    dom_.vcpu().post(cpu::Bucket::kOs, cost, [this, n] {
        flushPending_ = false;
        doFlush(n);
    });
}

void
NativeDriver::doFlush(std::uint32_t n)
{
    std::uint32_t ring_space =
        nic_.txRing().size() - (txProducer_ - nic_.txConsumer());
    n = std::min({n, ring_space,
                  static_cast<std::uint32_t>(staged().size())});
    for (std::uint32_t i = 0; i < n; ++i) {
        net::Packet pkt = takeStaged();
        nic::DmaDescriptor desc;
        desc.sg = std::move(pkt.hostSg);
        desc.flags = nic::kDescValid | nic::kDescEop;
        if (pkt.payloadBytes > net::kMss)
            desc.flags |= nic::kDescTso;
        txInflightBytes_.push_back(pkt.payloadBytes);
        nic_.txRing().write(txProducer_, std::move(desc));
        nic_.txRing().attachPacket(txProducer_, std::move(pkt));
        ++txProducer_;
        nTxPkts_.inc();
    }
    nic_.pioWriteTxProducer(txProducer_);
    wakeIfRoom();
}

void
NativeDriver::postRxBuffer(mem::PageNum page)
{
    nic::DmaDescriptor desc;
    desc.sg = {{mem::addrOf(page), net::kMtu}};
    desc.flags = nic::kDescValid;
    nic_.rxRing().write(rxProducer_, std::move(desc));
    ++rxProducer_;
    rxPioPending_ = true;
}

void
NativeDriver::refillRx(mem::PageNum page)
{
    postRxBuffer(page);
    flushRxProducer();
}

void
NativeDriver::flushRxProducer()
{
    if (rxPioPending_) {
        rxPioPending_ = false;
        nic_.pioWriteRxProducer(rxProducer_);
    }
}

} // namespace cdna::os
