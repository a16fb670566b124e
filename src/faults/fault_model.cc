/**
 * @file
 * Fault taxonomy and sampling implementation.
 */

#include "faults/fault_model.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/units.hh"

namespace arcc
{

const char *
toString(FaultType t)
{
    switch (t) {
      case FaultType::Bit:    return "bit";
      case FaultType::Word:   return "word";
      case FaultType::Column: return "column";
      case FaultType::Row:    return "row";
      case FaultType::Bank:   return "bank";
      case FaultType::Device: return "device";
      case FaultType::Lane:   return "lane";
    }
    return "?";
}

const std::array<FaultType, kNumFaultTypes> &
allFaultTypes()
{
    static const std::array<FaultType, kNumFaultTypes> types = {
        FaultType::Bit,  FaultType::Word,   FaultType::Column,
        FaultType::Row,  FaultType::Bank,   FaultType::Device,
        FaultType::Lane,
    };
    return types;
}

double
FaultRates::totalFit() const
{
    double s = 0.0;
    for (double f : fit)
        s += f;
    return s;
}

FaultRates
FaultRates::scaled(double factor) const
{
    FaultRates r = *this;
    for (double &f : r.fit)
        f *= factor;
    return r;
}

FaultRates
FaultRates::fieldStudy()
{
    FaultRates r;
    r[FaultType::Bit] = 29.8;
    r[FaultType::Word] = 0.5;
    r[FaultType::Column] = 8.8;
    r[FaultType::Row] = 6.0;
    r[FaultType::Bank] = 10.4;
    r[FaultType::Device] = 1.4;
    r[FaultType::Lane] = 0.3;
    return r;
}

double
DomainGeometry::pageFraction(FaultType t) const
{
    switch (t) {
      case FaultType::Lane:
        // Shared data lane: both ranks of the channel (Table 7.4).
        return 1.0;
      case FaultType::Device:
        // Every page in the affected rank.
        return 1.0 / ranks;
      case FaultType::Bank:
        return 1.0 / (static_cast<double>(ranks) * banksPerDevice);
      case FaultType::Column:
        // Half the pages of one bank (the half-row holding the column).
        return 1.0 /
               (2.0 * static_cast<double>(ranks) * banksPerDevice);
      case FaultType::Row:
        // The pagesPerRow pages sharing the faulty row.
        return static_cast<double>(pagesPerRow) /
               static_cast<double>(pages);
      case FaultType::Word:
      case FaultType::Bit:
        return 1.0 / static_cast<double>(pages);
    }
    // A new FaultType silently contributing zero would vanish from
    // every reliability number; fail loudly instead.
    fatal("DomainGeometry::pageFraction: unhandled fault type %d",
          static_cast<int>(t));
}

double
analyticAffectedFraction(const DomainGeometry &geom,
                         const FaultRates &rates, double years)
{
    const double hours = years * kHoursPerYear;
    const double devices = geom.totalDevices();
    double unaffected = 1.0;
    for (FaultType t : allFaultTypes()) {
        double rate = fitToPerHour(rates[t]) * devices;
        double p_any = 1.0 - std::exp(-rate * hours);
        unaffected *= 1.0 - p_any * geom.pageFraction(t);
    }
    return 1.0 - unaffected;
}

FaultSampler::FaultSampler(const DomainGeometry &geom,
                           const FaultRates &rates)
    : geom_(geom), rates_(rates)
{
}

std::vector<FaultEvent>
FaultSampler::sampleLifetime(double hours, Rng &rng) const
{
    std::vector<FaultEvent> events;
    const double devices = geom_.totalDevices();
    for (FaultType t : allFaultTypes()) {
        double rate_per_hour = fitToPerHour(rates_[t]) * devices;
        double mean_count = rate_per_hour * hours;
        std::uint64_t count = rng.poisson(mean_count);
        for (std::uint64_t i = 0; i < count; ++i) {
            FaultEvent e;
            e.timeHours = rng.uniform() * hours;
            e.type = t;
            e.rank = static_cast<int>(rng.below(geom_.ranks));
            e.bank = static_cast<int>(rng.below(geom_.banksPerDevice));
            e.half = static_cast<int>(rng.below(2));
            e.device = static_cast<int>(rng.below(geom_.devicesPerRank));
            events.push_back(e);
        }
    }
    sortEvents(events);
    return events;
}

AffectedTracker::AffectedTracker(const DomainGeometry &geom)
    : geom_(geom),
      cells_(static_cast<std::size_t>(geom.ranks) *
                 geom.banksPerDevice * 2,
             false)
{
}

void
AffectedTracker::apply(const FaultEvent &e)
{
    switch (e.type) {
      case FaultType::Lane:
        for (std::size_t i = 0; i < cells_.size(); ++i)
            markCell(i);
        break;
      case FaultType::Device:
        for (int b = 0; b < geom_.banksPerDevice; ++b)
            for (int h = 0; h < 2; ++h)
                markCell(idx(e.rank, b, h));
        break;
      case FaultType::Bank:
        markCell(idx(e.rank, e.bank, 0));
        markCell(idx(e.rank, e.bank, 1));
        break;
      case FaultType::Column:
        markCell(idx(e.rank, e.bank, e.half));
        break;
      case FaultType::Row:
        smallPages_ += geom_.pagesPerRow;
        break;
      case FaultType::Word:
      case FaultType::Bit:
        smallPages_ += 1;
        break;
    }
}

double
AffectedTracker::fraction() const
{
    double big = static_cast<double>(marked_) /
                 static_cast<double>(cells_.size());
    double small = static_cast<double>(smallPages_) /
                   static_cast<double>(geom_.pages);
    return std::min(1.0, big + small);
}

std::size_t
AffectedTracker::idx(int rank, int bank, int half) const
{
    return (static_cast<std::size_t>(rank) * geom_.banksPerDevice +
            bank) * 2 + half;
}

void
AffectedTracker::markCell(std::size_t i)
{
    if (!cells_[i]) {
        cells_[i] = true;
        ++marked_;
    }
}

void
FaultSampler::sortEvents(std::vector<FaultEvent> &events)
{
    // stable_sort, not sort: equal timestamps keep their type-major
    // insertion order, so lifetimes are bit-identical across standard
    // libraries (unstable sort made tie order libstdc++/libc++
    // dependent, which broke golden-pinned campaign results).
    std::stable_sort(events.begin(), events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.timeHours < b.timeHours;
                     });
}

} // namespace arcc
