#include "nic/intel_nic.hh"

#include <span>
#include <utility>

#include "sim/assert.hh"

namespace cdna::nic {

IntelNic::IntelNic(sim::SimContext &ctx, std::string name, mem::PciBus &bus,
                   mem::PhysMemory &mem, mem::DeviceId dev,
                   net::Fabric &fabric, CoalesceParams coalesce)
    : NicBase(ctx, std::move(name), bus, mem, dev, fabric),
      txBuf_(kTxBufferBytes),
      rxBuf_(kRxBufferBytes)
{
    setCoalesce(coalesce);
}

void
IntelNic::configureTxRing(std::uint32_t entries, mem::PhysAddr base)
{
    tx_.ring.emplace(entries, base);
}

void
IntelNic::configureRxRing(std::uint32_t entries, mem::PhysAddr base)
{
    rx_.ring.emplace(entries, base);
}

DescRing &
IntelNic::txRing()
{
    SIM_ASSERT(tx_.ring.has_value(), "TX ring not configured");
    return *tx_.ring;
}

DescRing &
IntelNic::rxRing()
{
    SIM_ASSERT(rx_.ring.has_value(), "RX ring not configured");
    return *rx_.ring;
}

void
IntelNic::pioWriteTxProducer(std::uint32_t producer)
{
    tx_.producer = producer;
    startTxFetch();
}

void
IntelNic::pioWriteRxProducer(std::uint32_t producer)
{
    rx_.producer = producer;
    startRxFetch();
}

void
IntelNic::startTxFetch()
{
    std::optional<DescFetch> f = tx_.beginFetch();
    if (!f)
        return;
    dma_.read(f->sg, dmaDomain_, mem::kWholeDevice,
              [this, n = f->count, ep = txEpoch_](mem::DmaResult) {
        if (ep != txEpoch_)
            return; // TX engine was quiesced while the fetch was in flight
        tx_.fetched += n;
        tx_.fetchBusy = false;
        startTxFetch();
        pumpTx();
    });
}

void
IntelNic::pumpTx()
{
    if (txDataBusy_ || tx_.used == tx_.fetched)
        return;
    std::uint32_t pos = tx_.used;
    const DmaDescriptor &desc = tx_.ring->at(pos);
    auto pkt_opt = tx_.ring->detachPacket(pos);
    if (!desc.valid() || !pkt_opt.has_value()) {
        // A descriptor with no packet behind it: the device would
        // transmit garbage from whatever the buffer holds.  Count it and
        // move on; the conventional NIC has no way to detect this.
        nTxGhost_.inc();
        ++tx_.used;
        ++tx_.consumer;
        scheduleConsumerWriteback();
        notePendingEvent();
        pumpTx();
        return;
    }
    net::Packet pkt = std::move(*pkt_opt);
    std::uint64_t bytes = pkt.payloadBytes;
    if (!txBuf_.tryReserve(bytes)) {
        // Out of NIC buffering; re-attach and retry when space frees.
        tx_.ring->attachPacket(pos, std::move(pkt));
        return;
    }
    txDataBusy_ = true;
    ++tx_.used;

    dma_.read(desc.sg, dmaDomain_, mem::kWholeDevice,
              [this, pkt = std::move(pkt), bytes,
               ep = txEpoch_](mem::DmaResult) mutable {
        if (ep != txEpoch_)
            return; // quiesced mid-read: the frame never reaches the wire
        txDataBusy_ = false;
        nTxPackets_.inc();
        nTxPayload_.inc(pkt.payloadBytes);
        sim::Time gap = kTxInterFrameGap *
                        static_cast<sim::Time>(pkt.wireFrames());
        port_.send(std::move(pkt), gap, [this, bytes, ep] {
            if (ep != txEpoch_)
                return; // quiesced while on the wire; state already reset
            txBuf_.release(bytes);
            ++tx_.consumer;
            scheduleConsumerWriteback();
            notePendingEvent();
            pumpTx();
        });
        pumpTx();
    });
}

void
IntelNic::startRxFetch()
{
    std::optional<DescFetch> f = rx_.beginFetch();
    if (!f)
        return;
    dma_.read(f->sg, dmaDomain_, mem::kWholeDevice,
              [this, n = f->count](mem::DmaResult) {
        rx_.fetched += n;
        rx_.fetchBusy = false;
        startRxFetch();
    });
}

void
IntelNic::receiveFrame(net::Packet pkt)
{
    if (!promiscuous_ && !(pkt.dst == mac_)) {
        nRxDropFilter_.inc();
        return;
    }
    if (rx_.fetched == rx_.used) {
        nRxDropNoDesc_.inc();
        startRxFetch();
        return;
    }
    std::uint64_t bytes = pkt.payloadBytes;
    if (!rxBuf_.tryReserve(bytes)) {
        nRxDropNoBuf_.inc();
        return;
    }
    std::uint32_t pos = rx_.used++;
    // Prefetch more descriptors as the supply drains.
    if (rx_.fetched - rx_.used < kFetchBatch / 2)
        startRxFetch();

    // Only the frame's bytes cross the bus, not the whole buffer; the
    // frame names that prefix of its buffer to the driver.  wsg views
    // the prefix's storage, which moves with the frame into the
    // callback, and the DMA reads it only during the call.
    pkt.hostSg = mem::sgPrefix(rx_.ring->at(pos).sg,
                               pkt.payloadBytes + net::kTcpIpHeader);
    std::span<const mem::SgEntry> wsg = pkt.hostSg;
    dma_.write(wsg, dmaDomain_, mem::kWholeDevice,
               [this, bytes, pkt = std::move(pkt)](mem::DmaResult) mutable {
        rxBuf_.release(bytes);
        nRxPackets_.inc();
        nRxPayload_.inc(pkt.payloadBytes);
        rxReady_.push_back(std::move(pkt));
        ++rx_.consumer;
        scheduleConsumerWriteback();
        notePendingEvent();
    });
}

std::vector<net::Packet>
IntelNic::drainRx()
{
    return std::exchange(rxReady_, {});
}

std::uint64_t
IntelNic::quiesceTx()
{
    ++txEpoch_;
    std::uint64_t dropped = 0;
    if (tx_.ring) {
        for (std::uint32_t pos = tx_.used; pos != tx_.fetched; ++pos)
            if (tx_.ring->detachPacket(pos).has_value())
                ++dropped;
    }
    // Descriptors advertised but never fetched die with the engine too.
    dropped += tx_.producer - tx_.fetched;
    txBuf_.reset();
    tx_.fetchBusy = false;
    txDataBusy_ = false;
    tx_.fetched = tx_.used = tx_.producer;
    if (tx_.consumer != tx_.producer) {
        // Publish the skip so the driver's completion accounting
        // (in-flight byte queue) drains instead of wedging.
        tx_.consumer = tx_.producer;
        scheduleConsumerWriteback();
        notePendingEvent();
    }
    nTxResetDrops_.inc(dropped);
    return dropped;
}

void
IntelNic::scheduleConsumerWriteback()
{
    // Consumer-index writebacks to host memory merge: one small DMA can
    // publish many completions.
    if (writebackBusy_) {
        writebackAgain_ = true;
        return;
    }
    writebackBusy_ = true;
    mem::SgEntry sg{statusAddr_, 8};
    dma_.write({&sg, 1}, dmaDomain_, mem::kWholeDevice, [this](mem::DmaResult) {
        writebackBusy_ = false;
        if (std::exchange(writebackAgain_, false))
            scheduleConsumerWriteback();
    });
}

} // namespace cdna::nic
