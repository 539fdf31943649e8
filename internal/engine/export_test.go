package engine

// CacheBudget lets the external tests state the bound they check.
const CacheBudget = cacheBudget

// WithWorkers sets the scheduler's parallelism, so that a test runs the
// same schedule on every box.
func WithWorkers(n int) Option { return func(e *Engine) { e.workers = n } }
