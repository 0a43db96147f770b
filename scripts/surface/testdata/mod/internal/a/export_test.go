package a

// Hook is visible to the external test of package a only.
func Hook() Square { return Square{Side: 2} }
