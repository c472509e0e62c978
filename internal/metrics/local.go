package metrics

// Instance handles give one component instance (a server, a feed, a
// device) its own count of an event while the named registry series keeps
// the process-wide total. The handle always records into its own value —
// the instance's Stats read it — and also adds to its registry series, but
// only while Enabled holds. So every event is recorded by one statement,
// and a process with two instances gets two correct instance values plus
// a registry series equal to their sum over the collection window.
// Registry.Reset never touches instance handles.

// A LocalCounter is an instance handle on a registry Counter. All methods
// are safe for concurrent use.
type LocalCounter struct {
	own    Counter
	parent *Counter
}

// Local returns a new instance handle that rolls up into c.
func (c *Counter) Local() *LocalCounter { return &LocalCounter{parent: c} }

// Inc adds one to the instance value (and to the registry series while
// collection is enabled).
func (l *LocalCounter) Inc() { l.Add(1) }

// Add adds n to the instance value (and to the registry series while
// collection is enabled).
func (l *LocalCounter) Add(n int64) {
	l.own.Add(n)
	if Enabled() {
		l.parent.Add(n)
	}
}

// Value returns the instance count.
func (l *LocalCounter) Value() int64 { return l.own.Value() }

// Reset zeroes the instance value; the registry series keeps its total.
func (l *LocalCounter) Reset() { l.own.reset() }

// A LocalFloat is an instance handle on a registry FloatCounter. All
// methods are safe for concurrent use.
type LocalFloat struct {
	own    FloatCounter
	parent *FloatCounter
}

// Local returns a new instance handle that rolls up into c.
func (c *FloatCounter) Local() *LocalFloat { return &LocalFloat{parent: c} }

// Add accumulates v into the instance value (and into the registry series
// while collection is enabled).
func (l *LocalFloat) Add(v float64) {
	l.own.Add(v)
	if Enabled() {
		l.parent.Add(v)
	}
}

// Value returns the instance total.
func (l *LocalFloat) Value() float64 { return l.own.Value() }

// A LocalHistogram is an instance handle on a registry Histogram, with the
// same bucket bounds. All methods are safe for concurrent use.
type LocalHistogram struct {
	own    *Histogram
	parent *Histogram
}

// Local returns a new instance handle that rolls up into h.
func (h *Histogram) Local() *LocalHistogram {
	return &LocalHistogram{own: newHistogram(h.bounds), parent: h}
}

// Observe records v in the instance histogram (and in the registry series
// while collection is enabled).
func (l *LocalHistogram) Observe(v float64) {
	l.own.Observe(v)
	if Enabled() {
		l.parent.Observe(v)
	}
}

// Count returns the instance observation count.
func (l *LocalHistogram) Count() int64 { return l.own.Count() }

// Sum returns the sum of the instance's observed values.
func (l *LocalHistogram) Sum() float64 { return l.own.Sum() }

// Mean returns Sum/Count, or 0 before the first observation.
func (l *LocalHistogram) Mean() float64 {
	if n := l.Count(); n > 0 {
		return l.Sum() / float64(n)
	}
	return 0
}
