package engine

// CacheBudget lets the external tests state the bound they check.
const CacheBudget = cacheBudget
