package main

import (
	"fixture/internal/a"
	"fixture/internal/c"
)

func main() {
	c.C()
	a.ExampleOnly()
}
