module p2psum/bench

go 1.23

require p2psum v0.0.0

replace p2psum => ../
