package pe

// Sum returns the running payload sum.
func (l *CounterLogic) Sum() int64 { return l.sum }
