module graphcache/benchmark

go 1.24

require graphcache v0.0.0

replace graphcache => ../
