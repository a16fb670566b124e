/**
 * @file
 * Channel timing / power model implementation.
 */

#include "dram/mem_controller.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/units.hh"

namespace arcc
{

MemChannel::MemChannel(const MemoryConfig &config,
                       const ControllerConfig &ctrl)
    : config_(config),
      ctrl_(ctrl),
      dev_(config.device),
      banks_(config.device.banks),
      ranks_(config.ranksPerChannel),
      tRcd_(dev_.tRCD * dev_.tCK),
      tCl_(dev_.clCycles * dev_.tCK),
      tCwl_((dev_.clCycles - 1) * dev_.tCK), // DDR2: CWL = CL-1
      tBurst_(dev_.burstCycles() * dev_.tCK),
      tRc_(dev_.tRC * dev_.tCK),
      tRrd_(dev_.tRRD * dev_.tCK),
      tWr_(dev_.tWR * dev_.tCK),
      tRp_(dev_.tRP * dev_.tCK),
      tWtr_(dev_.tWTR * dev_.tCK),
      readEnergy_(dev_.actPreEnergy() + dev_.readBurstEnergy()),
      writeEnergy_(dev_.actPreEnergy() + dev_.writeBurstEnergy()),
      bankFree_(static_cast<std::size_t>(banks_) * ranks_, 0.0),
      rankActReady_(ranks_, 0.0),
      rankState_(ranks_)
{
    if (ctrl.queueDepth < 1)
        fatal("MemChannel: queueDepth must be >= 1, got %d",
              ctrl.queueDepth);
    outstanding_.assign(static_cast<std::size_t>(ctrl.queueDepth), 0.0);
}

double
MemChannel::admissionTime(double arrival) const
{
    if (accesses_ < outstanding_.size())
        return arrival;
    // A full queue: the request waits until the one committed
    // queueDepth commits earlier drains and frees its slot.  That
    // completion sits in the ring slot this commit will overwrite.
    double frees = outstanding_[accesses_ % outstanding_.size()];
    return std::max(arrival, frees);
}

void
MemChannel::noteOutstanding(double completion)
{
    outstanding_[accesses_ % outstanding_.size()] = completion;
}

double
MemChannel::earliestIssue(double arrival, const DramCoord &coord,
                          bool paired) const
{
    double t = admissionTime(arrival);
    const std::size_t bank_idx =
        static_cast<std::size_t>(coord.rank) * banks_ + coord.bank;
    t = std::max(t, bankFree_[bank_idx]);
    t = std::max(t, rankActReady_[coord.rank]);
    if (paired && ctrl_.pairing == PairingPolicy::FifoPartition) {
        // Strict FIFO sub-line queue: no bypassing earlier issues.
        t = std::max(t, lastIssue_);
    }
    return t;
}

void
MemChannel::accountActivity(RankState &rank, double start, double end)
{
    if (start > rank.accountedTo) {
        double gap = start - rank.accountedTo;
        if (ctrl_.enablePowerDown && gap > ctrl_.powerDownThresholdNs) {
            rank.standbyTime += ctrl_.powerDownThresholdNs;
            rank.powerDownTime += gap - ctrl_.powerDownThresholdNs;
        } else {
            rank.standbyTime += gap;
        }
        rank.accountedTo = start;
    }
    if (end > rank.accountedTo) {
        rank.activeTime += end - rank.accountedTo;
        rank.accountedTo = end;
    }
}

MemResponse
MemChannel::commit(double issue, const DramCoord &coord, bool is_write,
                   int devicesTouched)
{
    const double cas_offset = tRcd_ + (is_write ? tCwl_ : tCl_);

    // Bus constraint, plus turnaround when the direction flips.
    double bus_ready = busFree_;
    if (accesses_ > 0 && lastWasWrite_ != is_write)
        bus_ready += tWtr_;
    double data_start = std::max(issue + cas_offset, bus_ready);
    // If the bus forced a delay, hold the ACT back so the row is not
    // sitting open longer than needed (closed-page controllers chain
    // ACT->CAS->PRE back to back).
    double eff_issue = data_start - cas_offset;
    double completion = data_start + tBurst_;

    const std::size_t bank_idx =
        static_cast<std::size_t>(coord.rank) * banks_ + coord.bank;
    double bank_busy_until = eff_issue + tRc_;
    if (is_write) {
        bank_busy_until =
            std::max(bank_busy_until, completion + tWr_ + tRp_);
    }
    bankFree_[bank_idx] = bank_busy_until;
    rankActReady_[coord.rank] = eff_issue + tRrd_;
    lastIssue_ = std::max(lastIssue_, eff_issue);
    busFree_ = completion;
    lastWasWrite_ = is_write;

    // Power: the rank's devices are in active standby while the bank
    // cycles; all devices of the rank pay background, only the accessed
    // devices pay ACT/PRE + burst energy.
    accountActivity(rankState_[coord.rank], eff_issue, bank_busy_until);
    power_.dynamicNj +=
        (is_write ? writeEnergy_ : readEnergy_) * devicesTouched;

    noteOutstanding(completion);
    ++accesses_;

    MemResponse resp;
    resp.issueTime = eff_issue;
    resp.completion = completion;
    return resp;
}

MemResponse
MemChannel::schedule(double arrival, const DramCoord &coord,
                     bool is_write, int devicesTouched)
{
    double t = earliestIssue(arrival, coord, /*paired=*/false);
    return commit(t, coord, is_write, devicesTouched);
}

void
MemChannel::finalize(double endTime)
{
    for (int r = 0; r < ranks_; ++r) {
        RankState &rank = rankState_[r];
        if (endTime > rank.accountedTo) {
            double gap = endTime - rank.accountedTo;
            if (ctrl_.enablePowerDown &&
                gap > ctrl_.powerDownThresholdNs) {
                rank.standbyTime += ctrl_.powerDownThresholdNs;
                rank.powerDownTime += gap - ctrl_.powerDownThresholdNs;
            } else {
                rank.standbyTime += gap;
            }
            rank.accountedTo = endTime;
        }
        // mW * ns = pJ; divide by 1e3 for nJ.
        double nj = (rank.activeTime * dev_.pActiveStandby() +
                     rank.standbyTime * dev_.pPrechargeStandby() +
                     rank.powerDownTime * dev_.pPowerDown()) *
                    1e-3 * config_.devicesPerRank;
        power_.backgroundNj += nj;
    }
    // Refresh: every device refreshes every tREFI regardless of state.
    double refreshes = endTime / dev_.tREFI;
    power_.refreshNj += refreshes * dev_.refreshEnergy() *
                        config_.devicesPerRank * ranks_;
}

} // namespace arcc
