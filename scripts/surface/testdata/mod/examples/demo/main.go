package main

import "fixture/internal/c"

func main() { c.C() }
