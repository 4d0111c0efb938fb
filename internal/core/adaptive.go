package core

import (
	"rdmc/internal/obs"
	"rdmc/internal/schedule"
)

// decideAdaptiveLocked is the root's per-transfer plan decision: sample the
// contention signal, quantize it through the generator's hysteresis, and pin
// the resulting mask and block size into the pending message so every member
// plans from the same decision. Static generators leave the message untouched.
// The decision holds for the whole transfer; the next transfer samples again.
func (g *Group) decideAdaptiveLocked(pm *pendingMsg) {
	ap, ok := g.cfg.Generator.(schedule.AdaptivePlanner)
	if !ok {
		return
	}
	c, ok := g.sampleContentionLocked()
	if !ok {
		return
	}
	mask := ap.DecideMask(c, g.lastMask)
	g.lastMask = mask
	pm.mask = mask
	pm.blockSize = ap.AdaptiveBlockSize(g.cfg.BlockSize, mask)
	g.obsEvent(obs.EvContentionSample, pm.seq, -1, -1, int64(mask))
}

// sampleContentionLocked reads the engine's contention sampler and folds in
// the group-local credit-stall ratio (the fraction of send-pump passes since
// the previous sample that blocked on missing receiver credit).
func (g *Group) sampleContentionLocked() (schedule.Contention, bool) {
	s := g.engine.sampler
	if s == nil {
		return schedule.Contention{}, false
	}
	c := s.SampleContention()
	ds := g.stallCredit - g.lastStallCredit
	dp := g.postedSends - g.lastPostedSends
	g.lastStallCredit, g.lastPostedSends = g.stallCredit, g.postedSends
	if ds+dp > 0 {
		c.CreditStall = float64(ds) / float64(ds+dp)
	}
	return c, true
}
