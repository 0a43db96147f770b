package c

// C is used, but its package has only an example importer.
func C() {}
