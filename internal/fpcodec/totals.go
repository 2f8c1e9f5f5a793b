package fpcodec

import "sync/atomic"

// Process-wide compression totals, counted where every compression path
// meets: the group kernel's AppendGroups. The codec sits below every
// transport (and below iteration attribution), so rather than plumbing a
// recorder through it, it keeps two atomics that an observability layer
// surfaces as callback gauges (obs.Registry.Func).
var (
	totalStreamValues atomic.Int64
	totalStreamBits   atomic.Int64
)

// StreamTotals returns how many float32 values the codec has encoded
// process-wide and how many bits those encodes emitted.
func StreamTotals() (values, bits int64) {
	return totalStreamValues.Load(), totalStreamBits.Load()
}
