package search

// SetTransitionMemo switches the check-local transition memo on or off for
// the searches started afterwards and returns a function restoring the
// previous setting. It exists only in the test binary, so the identity tests
// and the ablation benchmark of the external test package can reach the
// unexported toggle; callers must not run checks concurrently with the call.
func SetTransitionMemo(on bool) (restore func()) {
	prev := transitionMemoOff
	transitionMemoOff = !on
	return func() { transitionMemoOff = prev }
}
