module streamha/benchmark

go 1.22

require streamha v0.0.0

replace streamha => ../
