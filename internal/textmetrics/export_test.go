package textmetrics

// For corpus_test.go, which lives in the external test package because
// the corpus packages import this one.
var (
	EstimateTokensRunes = estimateTokensRunes
	TokenizeEstimate    = tokenizeEstimate
)
