package main

import "fixture/internal/b"

func main() { b.Run(nil) }
