/**
 * @file
 * The OS-internal network-device interface.
 *
 * A NetDevice is what the simulated kernel's stack sees: the native
 * Intel driver, the Xen paravirtual frontend, the swpt driver and the
 * CDNA guest driver all implement it, so the stack and workloads are
 * oblivious to which I/O virtualization architecture is underneath --
 * exactly the transparency the paper's designs preserve.
 *
 * The transmit contract is the same under every architecture, so it
 * lives here once: transmit() stages a packet, the driver's flush()
 * posts the staged burst to its ring, and the driver wakes the stack
 * once a full device has room again.  A driver supplies only what
 * differs: its room rule (canTransmit()), its flush and its interrupt
 * bottom half.
 */

#ifndef CDNA_OS_NET_DEVICE_HH
#define CDNA_OS_NET_DEVICE_HH

#include <functional>

#include "mem/phys_memory.hh"
#include "net/packet.hh"
#include "sim/assert.hh"
#include "sim/fifo.hh"

namespace cdna::os {

class NetDevice
{
  public:
    virtual ~NetDevice() = default;

    /** True when the device can accept another transmit. */
    virtual bool canTransmit() const = 0;

    /**
     * Stage a packet for transmission; flush() posts it.  Callers must
     * check canTransmit() first (asserted).  Marks the device full when
     * this packet took its last room.
     */
    virtual void
    transmit(net::Packet pkt)
    {
        SIM_ASSERT(canTransmit(), "transmit past device capacity");
        staged_.push_back(std::move(pkt));
        if (!canTransmit())
            txFull_ = true;
    }

    /** Push the staged transmits to the hardware (end of a burst). */
    virtual void flush() {}

    /**
     * Discard every staged packet: the domain whose memory held them
     * died before they were posted.
     */
    void
    dropStaged()
    {
        staged_.clear();
        txFull_ = false;
    }

    /** Device MAC address. */
    virtual net::MacAddr mac() const = 0;

    /** True if the device accepts TSO segments larger than one MSS. */
    virtual bool tsoCapable() const = 0;

    /**
     * When true (default) the driver recycles delivered RX pages
     * itself; when false (Xen backend use, where delivered pages are
     * page-flipped to a guest) the owner must supply replacements via
     * refillRx().
     */
    virtual void setAutoRefill(bool) {}

    /** Post a fresh RX buffer page (only used with auto-refill off). */
    virtual void refillRx(mem::PageNum) {}

    /** Install the receive path (stack delivery). */
    void setRxHandler(std::function<void(net::Packet)> fn)
    {
        rxHandler_ = std::move(fn);
    }

    /** Fires when a transmitted packet is guest-visibly complete. */
    void setTxCompleteHandler(std::function<void(std::uint64_t bytes)> fn)
    {
        txCompleteHandler_ = std::move(fn);
    }

    /** Fires when canTransmit() transitions false -> true. */
    void setTxSpaceHandler(std::function<void()> fn)
    {
        txSpaceHandler_ = std::move(fn);
    }

  protected:
    /** Packets staged by transmit() and not yet posted, oldest first. */
    const sim::Fifo<net::Packet> &staged() const { return staged_; }

    /** Take the oldest staged packet to post it to the hardware. */
    net::Packet
    takeStaged()
    {
        net::Packet pkt = std::move(staged_.front());
        staged_.pop_front();
        return pkt;
    }

    /** Wake the stack if transmit() filled the device and it has room. */
    void
    wakeIfRoom()
    {
        if (txFull_ && canTransmit())
            wake();
    }

    /** Wake the stack unconditionally (ring space renegotiated). */
    void
    wake()
    {
        txFull_ = false;
        deliverTxSpace();
    }

    void
    deliverRx(net::Packet pkt)
    {
        if (rxHandler_)
            rxHandler_(std::move(pkt));
    }

    void
    deliverTxComplete(std::uint64_t bytes)
    {
        if (txCompleteHandler_)
            txCompleteHandler_(bytes);
    }

    void
    deliverTxSpace()
    {
        if (txSpaceHandler_)
            txSpaceHandler_();
    }

  private:
    sim::Fifo<net::Packet> staged_;
    bool txFull_ = false; //!< transmit() took the last room
    std::function<void(net::Packet)> rxHandler_;
    std::function<void(std::uint64_t)> txCompleteHandler_;
    std::function<void()> txSpaceHandler_;
};

} // namespace cdna::os

#endif // CDNA_OS_NET_DEVICE_HH
