package feed

import "phideep/internal/metrics"

// Data-plane observability (DESIGN.md §"Observability"). Each Feed counts
// its protocol events once, in one instance handle per event: the handles
// back Stats and roll up into these feed.* registry series while
// metrics.Enabled() holds. Occupancy and the consumer count belong to one
// feed, so they are reported in Stats only.
var (
	mLeases  = metrics.Default().Counter("feed.leases")
	mCommits = metrics.Default().Counter("feed.commits")
	mSkips   = metrics.Default().Counter("feed.skips")
	mStalls  = metrics.Default().Counter("feed.stalls")
	mSeeks   = metrics.Default().Counter("feed.seeks")
)
