package flow

import "time"

// burstSeconds is a RetryBudget's bucket capacity in seconds of refill.
const burstSeconds = 1

// RetryBudget is a deterministic token-bucket bound on retry volume.
// Every retry spends one token; tokens refill at Rate per second up to
// burstSeconds of refill, which is also the initial fill. When the bucket
// is empty the retry is denied and the caller must surface a terminal
// error instead of re-sending — retries beyond the budget only amplify
// the overload that caused them (retry storms).
//
// The clock is passed into Allow explicitly (virtual in simulation,
// wall live), so budget decisions replay deterministically.
type RetryBudget struct {
	// Rate is the token refill rate per second. Required (> 0).
	Rate float64

	tokens float64
	last   time.Duration
	primed bool
}

// Allow reports whether one retry may be spent at time now, consuming
// a token when it may. A nil budget always allows (feature off).
func (b *RetryBudget) Allow(now time.Duration) bool {
	if b == nil {
		return true
	}
	burst := b.Rate * burstSeconds
	if !b.primed {
		b.tokens = burst
		b.last = now
		b.primed = true
	}
	if now > b.last {
		b.tokens += b.Rate * (now - b.last).Seconds()
		if b.tokens > burst {
			b.tokens = burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		mBudgetSpent.Inc()
		return true
	}
	mBudgetDenied.Inc()
	return false
}
