// integration test workspace member
