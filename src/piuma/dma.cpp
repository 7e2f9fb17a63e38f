#include "piuma/dma.hpp"

#include <algorithm>
#include <string>
#include <vector>

namespace pgcn::piuma {

void
DmaEngine::noteFault(const std::string &detail, sim::SimTime when)
{
    if (stats_.failed && !(when < stats_.failedWhenNs))
        return;
    stats_.failed = true;
    stats_.failedDetail = "core" + std::to_string(core_) + " dma " +
                          detail;
    stats_.failedWhenNs = when;
}

sim::Process
DmaEngine::run()
{
    co_await engine_.announce("core" + std::to_string(core_) + ".dma");

    // The in-flight transfer window. Descriptors dispatch in strict
    // arrival order, but up to dmaMaxInflight transfers overlap,
    // which is what makes the engine tolerate memory latency. Each
    // slot holds one outstanding access; reusing a slot first awaits
    // its previous transfer's response (which arrives over the memory
    // system's keyed response-event path, whatever domain served it)
    // and only then consumes that transfer's fault/recovery outcome.
    std::vector<PendingAccess> slots(cfg_.dmaMaxInflight);
    std::vector<double> slotBytes(cfg_.dmaMaxInflight, 0.0);
    // Stamp the owning core before the first await: a fresh slot's
    // default core (0) would route await_ready's clock read to domain
    // 0's engine — a cross-domain read under Parallel mode.
    for (auto &pending : slots)
        pending.core = core_;
    std::vector<unsigned> slotSlice(cfg_.dmaMaxInflight, 0);
    std::vector<bool> slotIsRead(cfg_.dmaMaxInflight, false);
    size_t slot = 0;
    // A lost transfer is detected when its final response is due.
    auto transfer_fault = [&](size_t i, const MemoryAccess &acc) {
        noteFault(std::string(slotIsRead[i] ? "read" : "write") +
                      " on slice " + std::to_string(slotSlice[i]),
                  acc.responseAt);
    };

    for (;;) {
        DmaDescriptor desc = co_await queue_.pop();
        if (desc.op == DmaDescriptor::Op::Terminate)
            break;

        const sim::SimTime started = engine_.now();
        // Serial dispatch overhead, then wait for a free window slot.
        double overhead = cfg_.dmaDescriptorOverheadNs;
        if (stream_.has_value()) [[unlikely]] {
            overhead = stream_->dmaOverhead(overhead);
            // Descriptor fetch/execution faults: re-issue under
            // timeout + exponential backoff, bounded by the retry
            // budget. On exhaustion record the failure and *skip* the
            // descriptor but keep consuming the queue — a dead engine
            // would wedge its producers, and an unrecoverable fault
            // must surface as SimFaultError, never as a deadlock.
            bool abandoned = false;
            for (unsigned attempt = 0; stream_->dropDescriptor();
                 ++attempt) {
                ++stats_.timeoutsFired;
                const sim::FaultConfig &fc = stream_->config();
                if (attempt >= fc.maxRetries) {
                    // The final timeout still elapses before the
                    // watchdog declares the descriptor dead.
                    co_await engine_.delay(fc.timeoutNs);
                    stats_.recoveryNs += fc.timeoutNs;
                    noteFault("descriptor (slice " +
                                  std::to_string(desc.slice) + ")",
                              engine_.now());
                    abandoned = true;
                    break;
                }
                const sim::SimTime r0 = engine_.now();
                co_await engine_.delay(fc.timeoutNs +
                                       stream_->backoffDelay(attempt));
                stats_.recoveryNs += engine_.now() - r0;
                ++stats_.retries;
            }
            if (abandoned)
                continue;
        }
        co_await engine_.delay(overhead);

        // Reclaim the slot: await its previous transfer's response,
        // consume its outcome, then occupy through the scratchpad
        // copy-add for reads (the SPAD multiply + accumulate extends
        // slot occupancy past the data's arrival).
        const MemoryAccess prev = co_await memory_.await(slots[slot]);
        if (slotBytes[slot] > 0.0) {
            if (prev.failed) [[unlikely]]
                transfer_fault(slot, prev);
            stats_.recoveryNs += prev.recoveryNs;
            if (slotIsRead[slot]) {
                co_await engine_.delayUntil(
                    prev.responseAt +
                    slotBytes[slot] / cfg_.spadBandwidthGBps);
            }
        }

        if (desc.op == DmaDescriptor::Op::ReadMulAcc) {
            // Pipelined read: the DRAM access overlaps the streamed
            // transfer, so the response only pays the return hop past
            // bandwidth service.
            memory_.readStripedAsync(core_, desc.slice, desc.bytes,
                                     /*pipelined=*/true, slots[slot]);
        } else {
            memory_.writeStripedAsync(core_, desc.slice, desc.bytes,
                                      /*pipelined=*/true, slots[slot]);
        }
        slotBytes[slot] = desc.bytes;
        slotSlice[slot] = desc.slice;
        slotIsRead[slot] = desc.op == DmaDescriptor::Op::ReadMulAcc;
        if (++slot == slots.size())
            slot = 0;

        ++stats_.descriptors;
        stats_.bytesMoved += desc.bytes;
        stats_.busyNs += engine_.now() - started;
        if (monitor_ != nullptr) [[unlikely]]
            monitor_->addSpan(started, engine_.now());
    }

    // Drain: the engine is not finished until its last transfers
    // complete (and their outcomes are consumed), so the simulation
    // makespan covers them. Slots are awaited in index order — a
    // deterministic sweep whose end time is the max over slots.
    for (size_t i = 0; i < slots.size(); ++i) {
        const MemoryAccess acc = co_await memory_.await(slots[i]);
        if (slotBytes[i] <= 0.0)
            continue;
        if (acc.failed) [[unlikely]]
            transfer_fault(i, acc);
        stats_.recoveryNs += acc.recoveryNs;
        if (slotIsRead[i]) {
            co_await engine_.delayUntil(
                acc.responseAt + slotBytes[i] / cfg_.spadBandwidthGBps);
        }
    }
}

} // namespace pgcn::piuma
