module goshmem/benchmark

go 1.22

require goshmem v0.0.0

replace goshmem => ../
